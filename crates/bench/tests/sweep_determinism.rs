//! Determinism proptests for the mega-sweep harness.
//!
//! The sweep's contract is that the aggregated jsonl store is a pure
//! function of the grid spec: byte-identical across fan-out thread
//! counts, and byte-identical between a fresh run and a `--resume` over
//! any prefix of a previous store — including a torn last line from a
//! crashed writer. These tests drive `run_sweep` directly with explicit
//! thread counts (no `PARFLOW_THREADS` env races) and random truncation
//! points.

use parflow_bench::sweep::aggregate::{cell_line, parse_cell_line, CellOutcome, STATUS_SIMULATED};
use parflow_bench::sweep::grid::SweepGrid;
use parflow_bench::sweep::{run_sweep, SweepOptions};
use proptest::prelude::*;
use std::sync::OnceLock;

fn opts(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        stream: false,
        certify: false,
    }
}

/// Small random grids: 1 dist × 2 loads × a random non-empty policy
/// subset × m ∈ {2,3} × seeds ≤ 2 × 30–70 jobs.
fn arb_grid() -> impl Strategy<Value = SweepGrid> {
    (1usize..16, 0usize..3, 2usize..=3, 1u32..=2, 30usize..=70).prop_map(
        |(polmask, upair, m, seeds, jobs)| {
            const POLICIES: [&str; 4] = ["fifo", "admit", "steal:2", "steal:8"];
            let picked: Vec<&str> = POLICIES
                .iter()
                .enumerate()
                .filter(|(i, _)| polmask & (1 << i) != 0)
                .map(|(_, p)| *p)
                .collect();
            let (u1, u2) = [("0.5", "0.9"), ("0.6", "1.1"), ("0.7", "0.8")][upair];
            let spec = format!(
                "dist=bing;util={u1},{u2};policy={};m={m};seeds={seeds};jobs={jobs}",
                picked.join(",")
            );
            SweepGrid::parse(&spec).expect("generated specs are valid")
        },
    )
}

/// Flow samples with injected NaN/±∞ poison mixed among finite values.
fn arb_poisoned_sample() -> impl Strategy<Value = f64> {
    (0usize..10, 0.0f64..1e6).prop_map(|(tag, v)| match tag {
        0 | 1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        _ => v,
    })
}

/// One fixed grid swept once, shared across the truncation cases.
fn baseline() -> &'static (SweepGrid, String) {
    static CELL: OnceLock<(SweepGrid, String)> = OnceLock::new();
    CELL.get_or_init(|| {
        let grid = SweepGrid::parse(
            "dist=bing;util=0.5,0.9;policy=fifo,admit,steal:4;m=2;seeds=2;jobs=60",
        )
        .expect("baseline grid parses");
        let store = run_sweep(&grid, None, &opts(2))
            .expect("baseline sweep")
            .store();
        (grid, store)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// PARFLOW_THREADS-equivalence: the serial fan-out and any parallel
    /// fan-out aggregate byte-identical stores (and identical summaries).
    #[test]
    fn store_bytes_invariant_across_thread_counts(grid in arb_grid(), threads in 2usize..=8) {
        let serial = run_sweep(&grid, None, &opts(1)).expect("serial sweep");
        let parallel = run_sweep(&grid, None, &opts(threads)).expect("parallel sweep");
        prop_assert_eq!(serial.store(), parallel.store());
        prop_assert_eq!(serial.summary, parallel.summary);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `--resume` over ANY byte-prefix of a store — torn header, torn
    /// mid-line, torn exactly at a line boundary, or the complete file —
    /// re-derives the byte-identical final store.
    #[test]
    fn resume_from_any_truncation_rederives_identical_store(
        frac in 0.0f64..=1.0,
        threads in 1usize..=4
    ) {
        let (grid, store) = baseline();
        // The store is pure ASCII, so any byte index is a char boundary.
        let cut = ((store.len() as f64) * frac) as usize;
        let torn = &store[..cut.min(store.len())];
        let resumed = run_sweep(grid, Some(torn), &opts(threads)).expect("resume");
        prop_assert_eq!(resumed.store(), store.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NaN/∞-injected cells aggregate without panicking, keep the
    /// poison counted out-of-band, and round-trip the store line
    /// byte-exactly (emit → parse → emit is the identity).
    #[test]
    fn nan_injected_cells_round_trip_without_panicking(
        samples in proptest::collection::vec(arb_poisoned_sample(), 0..20),
        opt_ms in 0.001f64..1e3
    ) {
        let (grid, _) = baseline();
        let spec = &grid.cells()[0];
        let out = CellOutcome::from_flows_ms(&samples, opt_ms);
        let finite = samples.iter().filter(|s| s.is_finite()).count();
        prop_assert_eq!(out.stats.map(|s| s.count).unwrap_or(0), finite);
        prop_assert_eq!(
            out.stats.map(|s| s.nonfinite).unwrap_or(out.nan),
            samples.len() - finite
        );
        let line = cell_line(spec, STATUS_SIMULATED, None, Some(&out));
        prop_assert!(!line.contains("NaN"), "no NaN literals in the store: {}", line);
        prop_assert!(!line.contains("inf"), "no inf literals in the store: {}", line);
        let parsed = parse_cell_line(&line).expect("own lines parse");
        prop_assert_eq!(parsed.outcome, Some(out));
        let again = cell_line(spec, STATUS_SIMULATED, None, parsed.outcome.as_ref());
        prop_assert_eq!(again, line);
    }
}
