//! `serve_replay` — the admission service replaying a jsonl file: one
//! client, closed loop (offer, then pump, per line), virtual arrival
//! stamps.
//!
//! Set-up writes one scratch file: N Bing submissions at 80 % utilization
//! of the 16-slot ledger followed by N at 200 % (SLO 2 s, queue bound 64),
//! so the second half exercises shed and reject. A repetition is
//! `ingest::run_jsonl` over a `BufReader` of that file, then `finish`,
//! with one worker and a one-iteration kernel: parse, ledger, dispatch and
//! acknowledgement are the whole cost and the input never sits in memory.
//! The traced repetition drives the same loop by hand through timers.

use super::{ratio, Counts, Rep, Scale, Tally, Workload};
use crate::sys;
use crate::trace::{Agg, Layer, Tracer};
use parflow_serve::{
    parse_submission, run_jsonl, AdmissionConfig, AdmissionLedger, ServeConfig, ServeReport,
    Submission, Supervisor,
};
use parflow_workloads::{qps_for_utilization, DistKind, WorkloadSpec, TICKS_PER_SECOND};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

const SLOTS: usize = 16;
const QUEUE_CAP: usize = 64;
const SLO_TICKS: u64 = 2 * TICKS_PER_SECOND as u64;
const PHASE_UTILIZATION: [f64; 2] = [0.8, 2.0];

pub struct ServeReplay {
    seed: u64,
    /// Submissions in the file (both phases).
    lines: u64,
    path: PathBuf,
    /// Merged digest of the last one-worker repetition.
    digest: String,
    /// Wall seconds of the two-worker run the digest check makes.
    w2_wall_s: f64,
    /// Resident kB gained per thousand submissions between the half-way
    /// and end marks of the first traced replay. Only a process's first
    /// replay shows it: later ones reuse the heap the first one grew.
    rss_kb_per_kjob: Option<f64>,
}

impl ServeReplay {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<ServeReplay, String> {
        let per_phase: u64 = scale.pick(60_000, 400);
        let path = sys::scratch_file("submissions.jsonl").map_err(|e| format!("scratch: {e}"))?;
        tr.leaf(Layer::Workloads, "emit jsonl", || {
            let mut out = BufWriter::new(File::create(&path)?);
            let (mut id, mut base) = (0u64, 0u64);
            for (util, phase_seed) in PHASE_UTILIZATION.iter().zip(seed..) {
                let qps = qps_for_utilization(DistKind::Bing, SLOTS, *util);
                let mut source =
                    WorkloadSpec::paper_fig2(DistKind::Bing, qps, 0, phase_seed).job_source();
                let mut last = base;
                for _ in 0..per_phase {
                    let job = source.next_job();
                    last = base + job.arrival;
                    let sub = Submission {
                        id,
                        arrival: last,
                        work: job.work,
                        poison: false,
                    };
                    writeln!(out, "{}", sub.to_jsonl())?;
                    id += 1;
                }
                base = last;
            }
            out.flush()
        })
        .map_err(|e: std::io::Error| format!("cannot write {}: {e}", path.display()))?;
        Ok(ServeReplay {
            seed,
            lines: 2 * per_phase,
            path,
            digest: String::new(),
            w2_wall_s: 0.0,
            rss_kb_per_kjob: None,
        })
    }

    fn config(&self, workers: usize) -> ServeConfig {
        let mut cfg = ServeConfig::new(workers);
        cfg.capacity_slots = SLOTS;
        cfg.queue_cap = QUEUE_CAP;
        cfg.slo_ticks = Some(SLO_TICKS);
        cfg.seed = self.seed;
        cfg.iters_per_unit = 1;
        cfg
    }

    fn replay(&self, workers: usize) -> Result<ServeReport, String> {
        let mut sup = Supervisor::new(self.config(workers)).map_err(|e| e.to_string())?;
        let file = File::open(&self.path).map_err(|e| e.to_string())?;
        let stats = run_jsonl(&mut sup, BufReader::new(file)).map_err(|e| e.to_string())?;
        if stats.offered != self.lines || stats.parse_errors != 0 {
            return Err(format!(
                "ingest saw {stats:?}, expected {} lines",
                self.lines
            ));
        }
        Ok(sup.finish())
    }

    /// `run_jsonl` and `finish` by hand, with a timer at each step and
    /// resident memory sampled at the half-way and end marks.
    fn replay_traced(&mut self, tr: &mut Tracer) -> Result<ServeReport, String> {
        let mut sup = tr
            .leaf(Layer::Serve, "Supervisor::new", || {
                Supervisor::new(self.config(1))
            })
            .map_err(|e| e.to_string())?;
        let file = File::open(&self.path).map_err(|e| e.to_string())?;
        let (mut read, mut parse, mut offer, mut pump) = (
            Agg::default(),
            Agg::default(),
            Agg::default(),
            Agg::default(),
        );
        let (mut offered, mut rss_half) = (0u64, None);
        let fed = tr.leaf(Layer::Serve, "run_jsonl by hand", || {
            let mut lines = BufReader::new(file).lines();
            while let Some(line) = read.time(|| lines.next()) {
                let line = line.map_err(|e| e.to_string())?;
                let sub = parse
                    .time(|| parse_submission(line.trim()))
                    .map_err(|e| e.to_string())?;
                offer.time(|| sup.offer(sub));
                pump.time(|| sup.pump());
                offered += 1;
                if offered == self.lines / 2 {
                    rss_half = sys::rss_kb();
                }
            }
            Ok::<(), String>(())
        });
        let feed = tr.last_span();
        tr.attach(feed, Layer::Serve, "BufRead::lines next", &read);
        tr.attach(feed, Layer::Serve, "parse_submission", &parse);
        tr.attach(feed, Layer::Serve, "Supervisor::offer", &offer);
        tr.attach(feed, Layer::Serve, "Supervisor::pump", &pump);
        fed?;
        if offered != self.lines {
            return Err(format!("fed {offered} of {} lines", self.lines));
        }
        if let Some((half, end)) = rss_half.zip(sys::rss_kb()) {
            let grown = end as f64 - half as f64;
            self.rss_kb_per_kjob
                .get_or_insert(grown / (self.lines as f64 / 2000.0));
        }
        Ok(tr.leaf(Layer::Serve, "Supervisor::finish", || sup.finish()))
    }
}

impl Drop for ServeReplay {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn histogram<'a>(
    report: &'a parflow_obs::ObsReport,
    name: &str,
) -> Option<&'a parflow_obs::HistogramSummary> {
    report.histograms.iter().find(|h| h.name == name)
}

impl Workload for ServeReplay {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let run = if tr.enabled() {
            self.replay_traced(tr)
        } else {
            self.replay(1)
        };
        let report = match run {
            Ok(report) => report,
            Err(_) => {
                rep.tally.ops(self.lines, self.lines);
                return rep;
            }
        };
        rep.jobs = report.submitted;
        let unacked = report.admitted.saturating_sub(report.completed);
        rep.tally.ops(self.lines, report.lost + unacked);
        rep.tally.check(report.submitted == self.lines);
        rep.tally.check(report.completed == report.admitted);
        rep.tally.check(report.lost == 0);
        let flows = histogram(&report.merged, "serve.virtual_flow_ticks");
        rep.tally
            .check(flows.is_some_and(|h| h.max <= SLO_TICKS as f64));
        let share = |x: u64| x as f64 / self.lines as f64;
        rep.counts.insert("serve.shed_ratio", share(report.shed));
        rep.counts
            .insert("serve.rejected_ratio", share(report.rejected_slo));
        if let Some(h) = histogram(&report.live, "serve.wall_flow_ms") {
            rep.counts.insert("serve.wall_flow_p50_ms", h.p50);
            rep.counts.insert("serve.wall_flow_p99_ms", h.p99);
        }
        self.digest = report.digest;
        rep
    }

    fn post_checks(&mut self) -> Tally {
        // The merged digest must not depend on the worker count.
        let mut tally = Tally::default();
        let t = Instant::now();
        let two = self.replay(2);
        self.w2_wall_s = t.elapsed().as_secs_f64();
        tally.check(two.is_ok_and(|r| r.digest == self.digest && !self.digest.is_empty()));
        tally
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Counts) {
        // Parse alone and the ledger alone, a block of lines at a time so
        // the clock is read per block and the file never sits in memory.
        const BLOCK: usize = 8192;
        let Ok(file) = File::open(&self.path) else {
            return;
        };
        let mut ledger = AdmissionLedger::new(AdmissionConfig {
            capacity_slots: SLOTS,
            queue_cap: QUEUE_CAP,
            slo_ticks: Some(SLO_TICKS),
        });
        let (mut parse_s, mut decide_s) = (0.0f64, 0.0f64);
        let mut lines = BufReader::new(file).lines().map_while(Result::ok);
        tr.leaf(Layer::Serve, "probe parse + ledger", || loop {
            let block: Vec<String> = lines.by_ref().take(BLOCK).collect();
            if block.is_empty() {
                break;
            }
            let t = Instant::now();
            let subs: Vec<Submission> = block
                .iter()
                .filter_map(|l| parse_submission(l).ok())
                .collect();
            parse_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            for s in &subs {
                std::hint::black_box(ledger.decide(s.arrival, s.work));
            }
            decide_s += t.elapsed().as_secs_f64();
        });
        let n = self.lines as f64;
        out.insert("serve.parse_lines_per_s", ratio(n, parse_s));
        out.insert("serve.ledger_decide_ns", ratio(decide_s * 1e9, n));
        out.insert("serve.submissions_per_s.w2", ratio(n, self.w2_wall_s));
    }

    fn layer_metrics(&self, tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        let offer = tr.total("Supervisor::offer");
        let pump = tr.total("Supervisor::pump");
        out.insert(
            "serve.offer_pump_ns",
            ratio((offer.total_ns + pump.total_ns) as f64, offer.count as f64),
        );
        let finish = tr.total("Supervisor::finish");
        out.insert(
            "serve.finish_s",
            ratio(finish.total_ns as f64 / 1e9, finish.count as f64),
        );
        let submitted: f64 = reps.iter().map(|r| r.jobs as f64).sum();
        out.insert(
            "serve.submissions_per_s.w1",
            ratio(submitted, tr.secs("rep")),
        );
        for key in ["serve.wall_flow_p50_ms", "serve.wall_flow_p99_ms"] {
            let per_rep: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.counts.get(key))
                .copied()
                .collect();
            out.insert(key, crate::stats::median(&per_rep));
        }
        out.insert("serve.rss_kb_per_kjob", self.rss_kb_per_kjob.unwrap_or(0.0));
    }
}
