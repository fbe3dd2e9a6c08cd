//! The traced run: spans around each call into a layer, kept in memory
//! and written out as `perf-trace.json` when the run ends.
//!
//! A span has a name, the layer (crate) it calls into, start, end, the
//! span that caused it and the id of the repetition it belongs to. A
//! boundary crossed thousands of times per repetition (`next_job`, the
//! outcome sink, `offer`/`pump`) is one *aggregated* span fed by an
//! [`Agg`]: crossing count, total and maximum nanoseconds. A layer's self
//! time is its spans' durations minus what their children cover; the
//! repetition's root span belongs to [`Layer::Harness`], so what the named
//! layers do not account for shows as the harness's own share.
//!
//! With tracing off every method is a plain call: the untraced run reads
//! no clock except around the whole repetition.

use crate::json;
use parflow_core::{JobOutcome, JobStream, StreamedJob};
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The layers time is attributed to: the harness itself plus the
/// workspace crates under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own code (loop control, checks between calls).
    Harness,
    /// `parflow-workloads`
    Workloads,
    /// `parflow-dag`
    Dag,
    /// `parflow-bench`
    Bench,
    /// `parflow-core`
    Core,
    /// `parflow-metrics`
    Metrics,
    /// `parflow-obs`
    Obs,
    /// `parflow-certify`
    Certify,
    /// `parflow-serve`
    Serve,
    /// `parflow-runtime`
    Runtime,
}

impl Layer {
    /// The measured layers (everything but the harness), in report order.
    pub const MEASURED: [Layer; 9] = [
        Layer::Workloads,
        Layer::Dag,
        Layer::Bench,
        Layer::Core,
        Layer::Metrics,
        Layer::Obs,
        Layer::Certify,
        Layer::Serve,
        Layer::Runtime,
    ];

    /// Lower-case layer name, as in `share.<layer>`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Workloads => "workloads",
            Layer::Dag => "dag",
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Metrics => "metrics",
            Layer::Obs => "obs",
            Layer::Certify => "certify",
            Layer::Serve => "serve",
            Layer::Runtime => "runtime",
        }
    }
}

/// Crossing count and time of one hot boundary, fed by a timing adapter.
///
/// Reading the clock twice costs about as much as the cheapest boundaries
/// do, so only every [`Agg::SAMPLE_EVERY`]-th crossing is timed (the first
/// one always) and the total is scaled up from the timed ones; every
/// crossing is counted.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    /// Crossings.
    pub count: u64,
    /// Crossings that were timed.
    pub timed: u64,
    /// Nanoseconds inside the timed crossings.
    pub timed_ns: u64,
    /// Longest timed crossing.
    pub max_ns: u64,
}

impl Agg {
    /// One crossing in this many is timed.
    pub const SAMPLE_EVERY: u64 = 8;

    /// Count one crossing, timing it if it is this boundary's turn.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.count += 1;
        if self.count % Self::SAMPLE_EVERY != 1 {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = elapsed_ns(t).saturating_sub(clock_bias_ns());
        self.timed += 1;
        self.timed_ns += ns;
        self.max_ns = self.max_ns.max(ns);
        out
    }

    /// Estimated nanoseconds inside the boundary over all crossings.
    pub fn total_ns(&self) -> u64 {
        (self.mean_ns() * self.count as f64) as u64
    }

    /// Mean nanoseconds per timed crossing (0 when never crossed).
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            self.timed_ns as f64 / self.timed as f64
        }
    }
}

/// What an empty timed interval reads on this host: the part of a clock
/// read that falls inside the interval it brackets. Without taking it
/// out, four timed boundaries per line of a microsecond loop add up to
/// more than the loop. Measured once, as the minimum of many.
fn clock_bias_ns() -> u64 {
    static BIAS: OnceLock<u64> = OnceLock::new();
    *BIAS.get_or_init(|| {
        (0..10_000)
            .map(|_| elapsed_ns(Instant::now()))
            .min()
            .unwrap_or(0)
    })
}

/// Nanoseconds since `t` (saturating at `u64::MAX`, ~584 years).
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`JobStream`] adapter that times every `next_job` into an [`Agg`].
/// It sits on the engine's pull path, so it holds to the engine rule: no
/// panicking call.
pub struct TimedStream<'a, S> {
    inner: S,
    agg: &'a mut Agg,
}

impl<'a, S: JobStream> TimedStream<'a, S> {
    /// Wrap `inner`, feeding `agg`.
    pub fn new(inner: S, agg: &'a mut Agg) -> Self {
        TimedStream { inner, agg }
    }

    /// The wrapped stream.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: JobStream> JobStream for TimedStream<'_, S> {
    fn next_job(&mut self) -> Option<StreamedJob> {
        let inner = &mut self.inner;
        self.agg.time(|| inner.next_job())
    }
}

/// Wrap an outcome sink so every call is timed into `agg`.
pub fn timed_sink<'a>(
    agg: &'a mut Agg,
    mut sink: impl FnMut(&JobOutcome) + 'a,
) -> impl FnMut(&JobOutcome) + 'a {
    move |o| agg.time(|| sink(o))
}

/// Crossings and time summed over the spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    /// Crossings.
    pub count: u64,
    /// Crossings whose time was read.
    pub timed: u64,
    /// Nanoseconds inside.
    pub total_ns: u64,
}

impl Total {
    /// Mean nanoseconds per crossing (0 when never crossed).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One recorded span. A plain span has `count == 1`; an aggregated span
/// carries its crossing count and its `total_ns` is the time inside the
/// boundary, not `end_ns - start_ns`.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer it belongs to.
    pub layer: Layer,
    /// Repetition id (0 = set-up and probes).
    pub run: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Crossings (1 for a plain span).
    pub count: u64,
    /// Crossings whose time was read (all of a plain span's one).
    pub timed: u64,
    /// Time inside the span (scaled up from the timed crossings).
    pub total_ns: u64,
    /// Longest crossing (= `total_ns` for a plain span).
    pub max_ns: u64,
}

/// Records spans when on; a transparent pass-through when off.
pub struct Tracer {
    /// Created recording; `on` may be toggled between repetitions.
    capable: bool,
    on: bool,
    t0: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Cost of one timed [`Agg::time`] crossing, measured at creation: an
    /// aggregated child's parent pays it per timed crossing without doing
    /// any of the layer's work, so it is charged to the harness instead.
    agg_overhead_ns: f64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        let agg_overhead_ns = if on {
            let mut probe = Agg::default();
            let t = Instant::now();
            for i in 0..400_000u64 {
                std::hint::black_box(probe.time(|| std::hint::black_box(i)));
            }
            elapsed_ns(t) as f64 / probe.timed as f64
        } else {
            0.0
        };
        Tracer {
            capable: on,
            on,
            t0: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            agg_overhead_ns,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between repetitions (the traced run
    /// alternates traced and untraced repetitions to measure its own
    /// overhead). A tracer created off stays off.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on && self.capable;
    }

    /// Start the next repetition; spans recorded from now on carry its id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Measured cost of one [`Agg::time`] crossing, in nanoseconds.
    pub fn agg_timer_ns(&self) -> f64 {
        self.agg_overhead_ns
    }

    /// Repetitions are over: spans recorded from now on (probes) carry
    /// id 0, like set-up, and stay out of the self-time shares.
    pub fn end_runs(&mut self) {
        self.run = 0;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        elapsed_ns(self.t0)
    }

    /// Run `f` inside a span; `f` may open child spans.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
            count: 1,
            timed: 1,
            total_ns: 0,
            max_ns: 0,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.total_ns = end_ns - start_ns;
        s.max_ns = s.total_ns;
        out
    }

    /// Run `f` inside a span that opens no children.
    pub fn leaf<T>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(layer, name, |_| f())
    }

    /// Index of the most recently closed or still open span, the parent
    /// to hand to [`Tracer::attach`] right after a [`Tracer::span`] call.
    pub fn last_span(&self) -> Option<usize> {
        self.spans.len().checked_sub(1)
    }

    /// Record an aggregated span under `parent` and return its index (so
    /// nested adapters can attach beneath it). No-op when off or when the
    /// boundary was never crossed.
    pub fn attach(
        &mut self,
        parent: Option<usize>,
        layer: Layer,
        name: &'static str,
        agg: &Agg,
    ) -> Option<usize> {
        if !self.on || agg.count == 0 {
            return None;
        }
        let (start_ns, end_ns) = parent
            .and_then(|p| self.spans.get(p))
            .map_or((0, 0), |p| (p.start_ns, p.end_ns));
        self.spans.push(Span {
            name,
            layer,
            run: self.run,
            parent,
            start_ns,
            end_ns,
            count: agg.count,
            timed: agg.timed,
            total_ns: agg.total_ns(),
            max_ns: agg.max_ns,
        });
        self.last_span()
    }

    /// Total time and crossings of every span called `name` inside
    /// repetitions (`run > 0`; set-up, warm-up and probes carry id 0).
    pub fn total(&self, name: &str) -> Total {
        self.total_where(name, |run| run > 0)
    }

    /// Seconds spent in spans called `name` outside repetitions.
    pub fn setup_secs(&self, name: &str) -> f64 {
        self.total_where(name, |run| run == 0).total_ns as f64 / 1e9
    }

    fn total_where(&self, name: &str, run: impl Fn(u32) -> bool) -> Total {
        let mut total = Total::default();
        for s in self.spans.iter().filter(|s| s.name == name && run(s.run)) {
            total.count += s.count;
            total.timed += s.timed;
            total.total_ns += s.total_ns;
        }
        total
    }

    /// Seconds spent in spans called `name` inside repetitions.
    pub fn secs(&self, name: &str) -> f64 {
        self.total(name).total_ns as f64 / 1e9
    }

    /// Self time per layer over all repetitions (`run > 0`), in
    /// nanoseconds, plus the total of their root spans. A span's self
    /// time is its duration minus its children's; the timer cost of an
    /// aggregated child moves from its parent to the harness.
    pub fn self_times(&self) -> (BTreeMap<Layer, f64>, f64) {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.total_ns as f64).collect();
        let mut harness_extra = 0.0;
        for s in &self.spans {
            if let Some(p) = s.parent {
                let timer = if s.count > 1 {
                    s.timed as f64 * self.agg_overhead_ns
                } else {
                    0.0
                };
                own[p] -= s.total_ns as f64 + timer;
                harness_extra += timer;
            }
        }
        let mut by_layer: BTreeMap<Layer, f64> = BTreeMap::new();
        let mut wall = 0.0;
        for (s, own) in self.spans.iter().zip(&own) {
            if s.run == 0 {
                continue;
            }
            *by_layer.entry(s.layer).or_default() += own.max(0.0);
            if s.parent.is_none() {
                wall += s.total_ns as f64;
            }
        }
        if wall > 0.0 {
            *by_layer.entry(Layer::Harness).or_default() += harness_extra;
        }
        (by_layer, wall)
    }

    /// The trace as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"agg_timer_ns\": {}, \"spans\": [\n",
            json::quote(workload),
            json::num(self.agg_overhead_ns)
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": {}, \"layer\": {}, \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"count\": {}, \"timed\": {}, \"total_ns\": {}, \"max_ns\": {}}}{}\n",
                json::quote(s.name),
                json::quote(s.layer.name()),
                s.run,
                s.start_ns,
                s.end_ns,
                s.count,
                s.timed,
                s.total_ns,
                s.max_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while elapsed_ns(t) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.next_run();
        let v = tr.span(Layer::Core, "x", |tr| tr.leaf(Layer::Dag, "y", || 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
        assert!(tr
            .attach(
                None,
                Layer::Core,
                "agg",
                &Agg {
                    count: 3,
                    timed: 1,
                    timed_ns: 9,
                    max_ns: 9
                }
            )
            .is_none());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::on();
        tr.next_run();
        tr.span(Layer::Harness, "rep", |tr| {
            tr.span(Layer::Core, "engine", |tr| {
                spin(2_000_000);
                tr.leaf(Layer::Metrics, "fold", || spin(1_000_000));
            });
        });
        let (by_layer, wall) = tr.self_times();
        let core = by_layer[&Layer::Core];
        let metrics = by_layer[&Layer::Metrics];
        assert!(core >= 2_000_000.0 && core < wall);
        assert!(metrics >= 1_000_000.0);
        let sum: f64 = by_layer.values().sum();
        assert!((sum - wall).abs() / wall < 0.01, "sum {sum} wall {wall}");
        // Parents precede children and every parent index is valid.
        for (i, s) in tr.spans().iter().enumerate() {
            assert!(s.parent.is_none_or(|p| p < i));
        }
        let doc = json::parse(&tr.to_json("w", 1)).expect("trace json parses");
        assert_eq!(doc.get("spans").map(|s| s.items().len()), Some(3));
    }

    #[test]
    fn aggregated_children_subtract_from_their_parent() {
        let mut tr = Tracer::on();
        tr.next_run();
        let mut agg = Agg::default();
        tr.span(Layer::Core, "engine", |_| {
            for _ in 0..16 {
                agg.time(|| spin(100_000));
            }
        });
        let parent = tr.last_span();
        tr.attach(parent, Layer::Bench, "next_job", &agg);
        // 16 crossings, every 8th timed (the 1st and the 9th), scaled up.
        assert_eq!((agg.count, agg.timed), (16, 2));
        assert_eq!(tr.total("next_job").count, 16);
        let (by_layer, wall) = tr.self_times();
        assert!(by_layer[&Layer::Bench] >= 1_600_000.0);
        assert!(by_layer[&Layer::Core] < wall - 1_600_000.0 + 1.0);
    }
}
