//! `repro_all` — the command a reader of the paper runs: the `repro`
//! binary of `parflow-bench`, spawned as a child process.
//!
//! A repetition runs every experiment whose size follows `PARFLOW_JOBS`
//! (20 of the 23; `victim-ablation`, `lower-bound` and `theory-ws` build
//! fixed instances of up to 200 k jobs, ~13 s together, and would not fit
//! a run).
//! The traced run adds `--obs-json` and reads per-experiment wall times
//! from the phase spans `repro` writes itself, and runs the three fixed-size
//! experiments once, as a probe, so every experiment has a series.
//!
//! The binary is built here, from the checkout's sources, so the numbers
//! are never those of a stale executable. At smoke scale nothing is built:
//! `repro fig3` runs if a binary is already there, and the workload
//! reports itself skipped otherwise.

use super::{ratio, sum_of, Counts, Rep, Scale, Workload};
use crate::json;
use crate::sys;
use crate::trace::{Layer, Tracer};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Duration;

/// Experiments whose instance sizes ignore `PARFLOW_JOBS`.
const FIXED_SIZE: [&str; 3] = ["victim-ablation", "lower-bound", "theory-ws"];
const JOBS_PER_POINT: u64 = 1_000;
const BANNER_RULE: &str = "================================================================";

pub struct ReproAll {
    seed: u64,
    /// `None`: smoke scale and no binary built; the workload is skipped.
    binary: Option<PathBuf>,
    /// Experiments of one repetition.
    experiments: Vec<String>,
    jobs_per_point: u64,
    peak_kb: u64,
}

fn build_release_binary() -> Result<(), String> {
    static BUILT: OnceLock<Result<(), String>> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            let status = Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--quiet",
                    "-p",
                    "parflow-bench",
                    "--bin",
                    "repro",
                ])
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("cannot run cargo: {e}"))?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("building repro failed: {status}"))
            }
        })
        .clone()
}

impl ReproAll {
    pub fn set_up(seed: u64, scale: Scale, tr: &mut Tracer) -> Result<ReproAll, String> {
        let target = sys::target_dir();
        let binary = match scale {
            Scale::Full => {
                build_release_binary()?;
                Some(target.join("release").join("repro"))
            }
            Scale::Smoke => ["release", "debug"]
                .iter()
                .map(|profile| target.join(profile).join("repro"))
                .find(|p| p.is_file()),
        };
        let mut experiments = Vec::new();
        if let Some(bin) = &binary {
            let listed = tr.leaf(Layer::Bench, "repro --list", || {
                Command::new(bin).arg("--list").output()
            });
            let listed = listed.map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
            experiments = String::from_utf8_lossy(&listed.stdout)
                .lines()
                .map(str::to_string)
                .filter(|name| !FIXED_SIZE.contains(&name.as_str()))
                .collect();
            if scale == Scale::Smoke {
                experiments.retain(|name| name == "fig3");
            }
            if experiments.is_empty() {
                return Err("`repro --list` named no experiment".to_string());
            }
        }
        Ok(ReproAll {
            seed,
            binary,
            experiments,
            jobs_per_point: scale.pick(JOBS_PER_POINT, 50),
            peak_kb: 0,
        })
    }

    /// Run `repro` on `experiments`; returns its standard output. The
    /// child's `VmHWM` is polled while it runs, because `/proc` forgets it
    /// the moment the child exits.
    fn spawn(
        &mut self,
        bin: &Path,
        experiments: &[String],
        obs_json: Option<&Path>,
    ) -> Result<String, String> {
        let out_path = sys::scratch_file("repro.stdout").map_err(|e| e.to_string())?;
        let out_file = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.args(experiments)
            .env("PARFLOW_JOBS", self.jobs_per_point.to_string())
            .env("PARFLOW_THREADS", sys::nproc().min(2).to_string())
            .env("PARFLOW_SEED", self.seed.to_string())
            .stdout(out_file)
            .stderr(Stdio::null());
        if let Some(path) = obs_json {
            cmd.arg("--obs-json").arg(path);
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot run repro: {e}"))?;
        let status = loop {
            if let Some(kb) = sys::peak_rss_kb(Some(child.id())) {
                self.peak_kb = self.peak_kb.max(kb);
            }
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for repro: {e}")),
            }
        };
        let stdout = std::fs::read_to_string(&out_path).map_err(|e| e.to_string());
        let _ = std::fs::remove_file(&out_path);
        if !status.success() {
            return Err(format!("repro exited with {status}"));
        }
        stdout
    }
}

/// `(name, wall_seconds)` of every phase in a `repro --obs-json` report.
fn phases(obs_json: &Path) -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string(obs_json) else {
        return Vec::new();
    };
    let _ = std::fs::remove_file(obs_json);
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    doc.get("phases")
        .map(|p| p.items())
        .unwrap_or_default()
        .iter()
        .filter_map(|p| {
            let name = p.get("name")?.as_str()?.to_string();
            Some((name, p.get("wall_seconds")?.as_f64()?))
        })
        .collect()
}

/// The declared `bench.experiment_s.*` metric a phase reports into.
fn experiment_metric(phase: &str) -> &'static str {
    crate::spec::PER_LAYER
        .iter()
        .map(|d| d.name)
        .find(|n| n.strip_prefix("bench.experiment_s.") == Some(phase))
        .unwrap_or("bench.experiment_s.other")
}

fn add_phases(counts: &mut Counts, phases: &[(String, f64)]) {
    for (name, secs) in phases {
        // `obs.*` phases are the report's own probes, not experiments.
        if !name.starts_with("obs.") {
            *counts.entry(experiment_metric(name)).or_default() += secs;
        }
    }
}

impl Workload for ReproAll {
    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let Some(bin) = self.binary.clone() else {
            // Counted, not hidden: one operation attempted, none failed,
            // and the note in the report says why nothing was timed.
            rep.tally.ops(1, 0);
            rep.counts.insert("skipped", 1.0);
            return rep;
        };
        let experiments = self.experiments.clone();
        let n = experiments.len() as u64;
        let obs = tr
            .enabled()
            .then(|| sys::scratch_file("repro.obs.json").ok())
            .flatten();
        let run = tr.leaf(
            Layer::Bench,
            "repro (PARFLOW_JOBS-sized experiments)",
            || self.spawn(&bin, &experiments, obs.as_deref()),
        );
        match run {
            Ok(stdout) => {
                // One banner (two rules) per experiment that ran.
                let rules = stdout.lines().filter(|l| *l == BANNER_RULE).count() as u64;
                let obs_banner = u64::from(obs.is_some());
                rep.tally
                    .ops(n, n.saturating_sub((rules / 2).saturating_sub(obs_banner)));
                rep.tally.check(rules == 2 * (n + obs_banner));
                rep.jobs = n * self.jobs_per_point;
            }
            Err(_) => rep.tally.ops(n, n),
        }
        if let Some(path) = obs {
            add_phases(&mut rep.counts, &phases(&path));
        }
        rep
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Counts) {
        let (Some(bin), Ok(obs)) = (self.binary.clone(), sys::scratch_file("repro.fixed.json"))
        else {
            return;
        };
        if self.jobs_per_point != JOBS_PER_POINT {
            return; // smoke scale: the fixed-size three alone take ~13 s
        }
        let fixed: Vec<String> = FIXED_SIZE.iter().map(|s| s.to_string()).collect();
        let run = tr.leaf(Layer::Bench, "probe repro (fixed-size experiments)", || {
            self.spawn(&bin, &fixed, Some(&obs))
        });
        if run.is_ok() {
            add_phases(out, &phases(&obs));
        }
    }

    fn layer_metrics(&self, _tr: &Tracer, reps: &[Rep], out: &mut Counts) {
        for d in crate::spec::PER_LAYER {
            if d.name.starts_with("bench.experiment_s.") {
                out.insert(d.name, ratio(sum_of(reps, d.name), reps.len() as f64));
            }
        }
    }

    fn peak_rss_kb(&self) -> Option<u64> {
        // The spawned repro's peak, not this process's: the work and the
        // memory are the child's.
        Some(self.peak_kb)
    }
}
