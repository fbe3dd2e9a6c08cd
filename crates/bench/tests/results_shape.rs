//! The committed `results/` tables of the grid-shaped experiments hold
//! their shape: the checks the experiments' unit tests make at small sizes,
//! plus EXPERIMENTS.md's Figure 2 shape check (OPT ≤ steal-16-first ≤
//! admit-first at all nine points), over the default-size CSVs that CI
//! regenerates and diffs.

mod shape;

fn committed(name: &str) -> String {
    let path = format!("{}/../../results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn figure_2_panels() {
    for name in ["fig2_bing", "fig2_finance", "fig2_log-normal"] {
        let csv = committed(name);
        assert_eq!(csv.lines().count(), 4, "{name}: three QPS rows");
        shape::fig2(&csv);
        shape::fig2_paper_order(&csv);
    }
}

#[test]
fn steal_k() {
    let csv = committed("steal_k");
    shape::steal_k(&csv);
    shape::steal_k_high_load(&csv, 1200);
}

#[test]
fn theory_fifo() {
    shape::theory_fifo(&committed("theory_fifo"));
}

#[test]
fn variance() {
    shape::variance(&committed("variance"), 10);
}

#[test]
fn scaling() {
    let csv = committed("scaling");
    shape::scaling(&csv);
    shape::scaling_large_m(&csv, 32);
}
