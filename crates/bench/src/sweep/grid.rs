//! Sweep grid specification: the cartesian product over
//! (workload × arrival load × policy × k × ε × m) with seeded replicas.
//!
//! A [`SweepGrid`] is parsed from a compact `key=value;…` spec string (or a
//! named preset) and enumerated into [`CellSpec`]s in a *fixed* nested
//! order, ascending load level first. The enumeration index is the cell's
//! identity in the results store; everything downstream (clustering,
//! resume) keys off it, so the order is part of the store schema and must
//! never change for a given canonical spec.

use parflow_core::StealPolicy;
use parflow_obs::fnv1a64;
use parflow_time::Speed;
use parflow_workloads::{min_qps, qps_for_utilization, DistKind, ARRIVAL_CEILING};

/// Results-store format version (the `"sweep"` header field).
pub(crate) const SWEEP_SCHEMA: u32 = 1;

/// A scheduling policy swept over. `fifo` is the centralized control; the
/// others run on the work-stealing engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SweepPolicy {
    /// Centralized FIFO (seed-independent: all seed replicas cluster).
    Fifo,
    /// Admit-first work stealing (the paper's k = 0 extreme).
    AdmitFirst,
    /// Steal-k-first work stealing.
    StealK(u32),
}

impl SweepPolicy {
    /// Parse `fifo`, or any spelling [`StealPolicy`] accepts (`admit`,
    /// `steal:K`, …; `steal:0` is `admit`, so duplicate spellings cluster
    /// rather than double-run). No other centralized scheduler is
    /// sweepable.
    pub fn parse(s: &str) -> Result<SweepPolicy, String> {
        if s == "fifo" {
            return Ok(SweepPolicy::Fifo);
        }
        match s.parse::<StealPolicy>() {
            Ok(StealPolicy::AdmitFirst) => Ok(SweepPolicy::AdmitFirst),
            Ok(StealPolicy::StealKFirst { k }) => Ok(SweepPolicy::StealK(k)),
            Err(_) => Err(format!("unknown policy `{s}` (want fifo|admit|steal:K)")),
        }
    }

    /// Canonical name, also the store's `policy` field.
    pub fn name(&self) -> String {
        match self {
            SweepPolicy::Fifo => "fifo".to_string(),
            SweepPolicy::AdmitFirst => "admit".to_string(),
            SweepPolicy::StealK(k) => format!("steal:{k}"),
        }
    }

    /// Whether the simulated schedule depends on the engine seed. FIFO is
    /// deterministic, so its seed replicas are provably identical and the
    /// clusterer simulates only one representative.
    pub(crate) fn seed_dependent(&self) -> bool {
        !matches!(self, SweepPolicy::Fifo)
    }

    /// The work-stealing policy, `None` for the centralized control.
    pub(crate) fn steal_policy(&self) -> Option<StealPolicy> {
        match self {
            SweepPolicy::Fifo => None,
            SweepPolicy::AdmitFirst => Some(StealPolicy::AdmitFirst),
            SweepPolicy::StealK(k) => Some(StealPolicy::StealKFirst { k: *k }),
        }
    }
}

/// The full sweep specification. Axes are stored canonically (sorted,
/// deduplicated) so two spellings of the same grid produce byte-identical
/// stores.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// Work distributions.
    pub dists: Vec<DistKind>,
    /// Target utilizations (the load axis), ascending; a cell's `level` is
    /// its position here. QPS is derived per (dist, m) so every machine
    /// size sees the same relative load.
    pub utils: Vec<f64>,
    /// Policies swept.
    pub policies: Vec<SweepPolicy>,
    /// Machine sizes.
    pub ms: Vec<usize>,
    /// Speed augmentations ε as reduced fractions; speed = 1 + ε.
    pub epss: Vec<(u64, u64)>,
    /// Seed replicas per configuration.
    pub seeds: u32,
    /// Jobs per generated instance.
    pub jobs: usize,
    /// Base seed mixed into every derived workload/engine seed.
    pub base_seed: u64,
}

/// One enumerated grid point: a fully-resolved simulation request.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Identity: the enumeration index, stable for a canonical grid.
    pub id: usize,
    /// Load-level index (position of `util` in the grid's `utils`).
    pub level: usize,
    /// Work distribution.
    pub dist: DistKind,
    /// Target utilization.
    pub util: f64,
    /// Machine size.
    pub m: usize,
    /// Speed augmentation ε as a reduced fraction.
    pub eps: (u64, u64),
    /// Policy.
    pub policy: SweepPolicy,
    /// Seed-replica index in `0..grid.seeds`.
    pub rep: u32,
    /// Jobs per instance.
    pub jobs: usize,
    /// Derived arrival rate.
    pub qps: f64,
    /// Instance-generation seed (shared by every cell on this instance).
    pub workload_seed: u64,
    /// Engine seed for this replica.
    pub engine_seed: u64,
}

impl CellSpec {
    /// Canonical ε rendering (`0`, `1`, `1/10`).
    pub fn eps_str(&self) -> String {
        eps_str(self.eps)
    }

    /// Engine speed `1 + ε`.
    pub fn speed(&self) -> Speed {
        Speed::augmented(self.eps.0, self.eps.1)
    }

    /// The instance this cell simulates: cells sharing a key share one
    /// generated instance (and one OPT computation) in the fan-out stage.
    pub(crate) fn instance_key(&self) -> String {
        format!(
            "{}/u{}/m{}/j{}",
            self.dist.name(),
            self.util,
            self.m,
            self.jobs
        )
    }
}

fn eps_str(eps: (u64, u64)) -> String {
    match eps {
        (0, _) => "0".to_string(),
        (n, 1) => format!("{n}"),
        (n, d) => format!("{n}/{d}"),
    }
}

/// Named preset: the CI/test smoke grid (12 cells, sub-second).
pub(crate) const PRESET_SMOKE: &str =
    "dist=bing;util=0.6,0.9;policy=fifo,admit,steal:4;m=4;eps=0;seeds=2;jobs=300";

/// Named preset: the phase-diagram grid behind EXPERIMENTS.md (720 cells).
pub(crate) const PRESET_PHASE: &str = "dist=bing,finance;util=0.55,0.7,0.85,1.0,1.15;\
policy=fifo,admit,steal:1,steal:4,steal:16,steal:64;m=8,16;eps=0,1/10;seeds=3;jobs=2000";

impl SweepGrid {
    /// Parse a grid spec: a preset name (`smoke`, `phase`) or a
    /// `key=v1,v2;key=v;…` string with keys `dist`, `util`, `policy`, `m`,
    /// `eps`, `seeds`, `jobs`, `seed`. Missing keys take the smoke
    /// preset's defaults for scalar knobs and error for empty axes.
    pub fn parse(spec: &str) -> Result<SweepGrid, String> {
        let spec = match spec {
            "smoke" => PRESET_SMOKE,
            "phase" => PRESET_PHASE,
            other => other,
        };
        let mut dists: Vec<DistKind> = Vec::new();
        let mut utils: Vec<f64> = Vec::new();
        let mut policies: Vec<SweepPolicy> = Vec::new();
        let mut ms: Vec<usize> = Vec::new();
        let mut epss: Vec<(u64, u64)> = Vec::new();
        let mut seeds: u32 = 1;
        let mut jobs: usize = 1_000;
        let mut base_seed: u64 = 0x9af1;
        for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
            let (key, vals) = part
                .split_once('=')
                .ok_or_else(|| format!("bad grid clause `{part}` (want key=v1,v2)"))?;
            let key = key.trim();
            let vals: Vec<&str> = vals.split(',').map(str::trim).collect();
            match key {
                "dist" => {
                    for v in &vals {
                        dists.push(v.parse()?);
                    }
                }
                "util" => {
                    for v in &vals {
                        let u: f64 = v.parse().map_err(|_| format!("bad util `{v}`"))?;
                        if !(u.is_finite() && u > 0.0) {
                            return Err(format!("util must be finite and positive, got `{v}`"));
                        }
                        utils.push(u);
                    }
                }
                "policy" => {
                    for v in &vals {
                        policies.push(SweepPolicy::parse(v)?);
                    }
                }
                "m" => {
                    for v in &vals {
                        let m: usize = v.parse().map_err(|_| format!("bad m `{v}`"))?;
                        if m == 0 {
                            return Err("m must be at least 1".to_string());
                        }
                        ms.push(m);
                    }
                }
                "eps" => {
                    for v in &vals {
                        epss.push(Speed::parse_eps(v)?);
                    }
                }
                "seeds" => {
                    seeds = single(key, &vals)?;
                    if seeds == 0 {
                        return Err("seeds must be at least 1".to_string());
                    }
                }
                "jobs" => {
                    jobs = single(key, &vals)?;
                }
                "seed" => {
                    base_seed = single(key, &vals)?;
                }
                other => return Err(format!("unknown grid key `{other}`")),
            }
        }
        if dists.is_empty() {
            return Err("grid needs at least one dist".to_string());
        }
        if utils.is_empty() {
            return Err("grid needs at least one util".to_string());
        }
        if policies.is_empty() {
            return Err("grid needs at least one policy".to_string());
        }
        if ms.is_empty() {
            ms.push(16);
        }
        if epss.is_empty() {
            epss.push((0, 1));
        }
        // Canonicalize: sort + dedup every axis so equivalent spellings
        // yield identical cell enumerations (and store headers).
        utils.sort_by(f64::total_cmp);
        utils.dedup();
        dists.sort_by_key(|d| d.name());
        dists.dedup_by_key(|d| d.name());
        policies.sort();
        policies.dedup();
        ms.sort_unstable();
        ms.dedup();
        epss.sort_unstable();
        epss.dedup();
        let grid = SweepGrid {
            dists,
            utils,
            policies,
            ms,
            epss,
            seeds,
            jobs,
            base_seed,
        };
        grid.check_jobs()?;
        Ok(grid)
    }

    /// Whether every cell can run `self.jobs` jobs: at least one, within
    /// the engines' `u32` job ids (past them the streaming path returns
    /// TooManyJobs mid-run), at a finite positive rate (a finite util can
    /// still scale past f64: `util=1e308` at m=16) whose arrivals stay under
    /// the ceiling. Rerun after changing `jobs`.
    pub(crate) fn check_jobs(&self) -> Result<(), String> {
        let jobs = self.jobs;
        if jobs == 0 {
            return Err("jobs must be at least 1".to_string());
        }
        if jobs as u64 > u32::MAX as u64 {
            return Err(format!(
                "jobs={jobs} exceeds the engine job-id space (max {})",
                u32::MAX
            ));
        }
        for &dist in &self.dists {
            for (&m, &util) in self
                .ms
                .iter()
                .flat_map(|m| self.utils.iter().map(move |u| (m, u)))
            {
                let qps = qps_for_utilization(dist, m, util);
                let name = dist.name();
                if !(qps.is_finite() && qps > 0.0) {
                    return Err(format!(
                        "util={util:?} at m={m} is no finite positive QPS ({name})"
                    ));
                }
                if qps < min_qps(jobs) {
                    return Err(format!(
                        "util={util:?} at m={m} is too slow: {jobs} arrivals could pass \
                         tick {ARRIVAL_CEILING} ({name})"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The canonical spec string: parse-stable, embedded in the store
    /// header so `--resume` can refuse a mismatched grid.
    pub(crate) fn canonical(&self) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        format!(
            "dist={};util={};policy={};m={};eps={};seeds={};jobs={};seed={:#x}",
            join(self.dists.iter().map(|d| d.name().to_string()).collect()),
            join(self.utils.iter().map(|u| format!("{u}")).collect()),
            join(self.policies.iter().map(SweepPolicy::name).collect()),
            join(self.ms.iter().map(|m| format!("{m}")).collect()),
            join(self.epss.iter().map(|&e| eps_str(e)).collect()),
            self.seeds,
            self.jobs,
            self.base_seed,
        )
    }

    /// Total cell count (`len` of [`SweepGrid::cells`]).
    pub(crate) fn cell_count(&self) -> usize {
        self.dists.len()
            * self.utils.len()
            * self.policies.len()
            * self.ms.len()
            * self.epss.len()
            * self.seeds as usize
    }

    /// Enumerate every cell in store order: level-major (ascending load),
    /// then dist → m → ε → policy → replica. The index is the cell id.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(self.cell_count());
        for (level, &util) in self.utils.iter().enumerate() {
            for &dist in &self.dists {
                for &m in &self.ms {
                    let qps = qps_for_utilization(dist, m, util);
                    let inst_tag = format!("inst/{}/u{}/m{}/j{}", dist.name(), util, m, self.jobs);
                    let workload_seed = self.base_seed ^ fnv1a64(inst_tag.as_bytes());
                    for &eps in &self.epss {
                        for &policy in &self.policies {
                            for rep in 0..self.seeds {
                                let cell_tag = format!(
                                    "engine/{}/u{}/m{}/e{}/j{}/{}/r{}",
                                    dist.name(),
                                    util,
                                    m,
                                    eps_str(eps),
                                    self.jobs,
                                    policy.name(),
                                    rep
                                );
                                out.push(CellSpec {
                                    id: out.len(),
                                    level,
                                    dist,
                                    util,
                                    m,
                                    eps,
                                    policy,
                                    rep,
                                    jobs: self.jobs,
                                    qps,
                                    workload_seed,
                                    engine_seed: self.base_seed ^ fnv1a64(cell_tag.as_bytes()),
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn single<T: std::str::FromStr>(key: &str, vals: &[&str]) -> Result<T, String> {
    match vals {
        [v] => v.parse().map_err(|_| format!("bad {key} `{v}`")),
        _ => Err(format!("{key} takes exactly one value")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_enumerate() {
        let smoke = SweepGrid::parse("smoke").unwrap();
        assert_eq!(smoke.cell_count(), 12);
        assert_eq!(smoke.cells().len(), 12);
        let phase = SweepGrid::parse("phase").unwrap();
        assert_eq!(phase.cell_count(), 720);
        assert!(phase.cell_count() >= 500, "phase grid must be paper-scale");
    }

    #[test]
    fn canonicalization_is_spelling_independent() {
        let a = SweepGrid::parse("dist=finance,bing;util=0.9,0.6;policy=steal:4,fifo;m=4;seeds=2")
            .unwrap();
        let b = SweepGrid::parse("dist=bing,finance;util=0.6,0.9;policy=fifo,steal:4;m=4;seeds=2")
            .unwrap();
        assert_eq!(a.canonical(), b.canonical());
        let ca = a.cells();
        let cb = b.cells();
        assert_eq!(ca.len(), cb.len());
        for (x, y) in ca.iter().zip(&cb) {
            assert_eq!(x.engine_seed, y.engine_seed);
            assert_eq!(x.workload_seed, y.workload_seed);
        }
    }

    #[test]
    fn steal_zero_normalizes_to_admit() {
        assert_eq!(
            SweepPolicy::parse("steal:0").unwrap(),
            SweepPolicy::AdmitFirst
        );
        let g = SweepGrid::parse("dist=bing;util=1;policy=admit,steal:0;m=2").unwrap();
        assert_eq!(g.policies, vec![SweepPolicy::AdmitFirst]);
    }

    #[test]
    fn cells_are_level_major_and_ids_dense() {
        let g = SweepGrid::parse("dist=bing;util=0.8,0.5;policy=admit,fifo;m=2,4;seeds=2").unwrap();
        let cells = g.cells();
        let mut last_level = 0;
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.id, i);
            assert!(c.level >= last_level, "levels must be non-decreasing");
            last_level = c.level;
        }
        assert!((cells[0].util - 0.5).abs() < 1e-12, "lowest load first");
    }

    #[test]
    fn bad_specs_error() {
        assert!(SweepGrid::parse("dist=bogus;util=1;policy=fifo").is_err());
        assert!(SweepGrid::parse("dist=bing;util=-1;policy=fifo").is_err());
        assert!(SweepGrid::parse("dist=bing;util=inf;policy=fifo").is_err());
        assert!(SweepGrid::parse("dist=bing;util=1;policy=bwf").is_err());
        assert!(
            SweepGrid::parse("dist=bing;util=1e308;policy=fifo").is_err(),
            "util x m overflows the arrival rate"
        );
        assert!(SweepGrid::parse("dist=bing;util=1;policy=steal:x").is_err());
        assert!(SweepGrid::parse("dist=bing;util=1;policy=fifo;eps=1/0").is_err());
        assert!(
            SweepGrid::parse("dist=bing;util=1;policy=fifo;eps=18446744073709551615/2").is_err(),
            "1 + eps must fit u64"
        );
        assert!(SweepGrid::parse("nonsense").is_err());
        assert!(SweepGrid::parse("dist=bing;util=1").is_err(), "no policies");
    }

    #[test]
    fn util_whose_arrivals_could_pass_the_ceiling_errors() {
        // The util at which a one-job Bing cell on m = 16 runs at `min_qps(1)`.
        let at = min_qps(1) / qps_for_utilization(DistKind::Bing, 16, 1.0);
        let grid = |u: f64| SweepGrid::parse(&format!("dist=bing;util={u:e};policy=fifo;jobs=1"));
        assert!(grid(at * (1.0 + 1e-9)).is_ok());
        let e = grid(at * (1.0 - 1e-9)).unwrap_err();
        assert!(e.contains("too slow"), "{e}");
    }

    #[test]
    fn workload_seed_shared_across_policies_not_reps() {
        let g = SweepGrid::parse("dist=bing;util=1;policy=admit,steal:4;m=2;seeds=2").unwrap();
        let cells = g.cells();
        assert!(cells
            .iter()
            .all(|c| c.workload_seed == cells[0].workload_seed));
        // Engine seeds differ across reps and policies.
        let mut seeds: Vec<u64> = cells
            .iter()
            .filter(|c| c.policy.seed_dependent())
            .map(|c| c.engine_seed)
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "2 policies x 2 reps distinct engine seeds");
    }
}
