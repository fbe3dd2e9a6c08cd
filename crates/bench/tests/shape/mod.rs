//! Shape checks over the grid-shaped experiments' tables, read as CSV
//! text: the `repro` tables at test sizes (the unit tests of
//! `experiments/grids.rs`) and the committed `results/` files
//! (`tests/results_shape.rs`) go through the same assertions.

#![allow(dead_code)]

/// A parsed CSV table: column lookup by header name, numbers by cell.
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    pub fn parse(text: &str) -> Csv {
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(String::from).collect());
        let header = lines.next().expect("a header line");
        Csv {
            header,
            rows: lines.collect(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column `{name}` in {:?}", self.header))
    }

    /// Column `name` as text, one entry per row.
    pub fn text(&self, name: &str) -> Vec<&str> {
        let c = self.col(name);
        self.rows.iter().map(|r| r[c].as_str()).collect()
    }

    /// Column `name` as numbers (a trailing `%` is dropped).
    pub fn num(&self, name: &str) -> Vec<f64> {
        self.text(name)
            .iter()
            .map(|v| {
                v.trim_end_matches('%')
                    .parse()
                    .unwrap_or_else(|_| panic!("`{name}` cell `{v}` is no number"))
            })
            .collect()
    }
}

/// Figure 2: OPT > 0, both policies ≥ OPT, and the load rises with QPS.
pub fn fig2(csv: &str) {
    let t = Csv::parse(csv);
    let (opt, steal, admit) = (
        t.num("OPT (ms)"),
        t.num("steal-16-first (ms)"),
        t.num("admit-first (ms)"),
    );
    for i in 0..opt.len() {
        assert!(opt[i] > 0.0, "row {i}: OPT {}", opt[i]);
        assert!(
            steal[i] >= opt[i],
            "row {i}: steal-16 {} < OPT {}",
            steal[i],
            opt[i]
        );
        assert!(
            admit[i] >= opt[i],
            "row {i}: admit {} < OPT {}",
            admit[i],
            opt[i]
        );
    }
    let (qps, util) = (t.num("QPS"), t.num("util"));
    for i in 1..qps.len() {
        assert!(
            qps[i] > qps[i - 1] && util[i] > util[i - 1],
            "{qps:?} {util:?}"
        );
    }
}

/// Figure 2's paper ordering: OPT ≤ steal-16-first ≤ admit-first.
pub fn fig2_paper_order(csv: &str) {
    let t = Csv::parse(csv);
    let (opt, steal, admit) = (
        t.num("OPT (ms)"),
        t.num("steal-16-first (ms)"),
        t.num("admit-first (ms)"),
    );
    for i in 0..opt.len() {
        assert!(
            opt[i] <= steal[i] && steal[i] <= admit[i],
            "row {i}: OPT {} steal-16 {} admit {}",
            opt[i],
            steal[i],
            admit[i]
        );
    }
}

/// steal-k: every ratio to OPT is at least 1.
pub fn steal_k(csv: &str) {
    for (i, r) in Csv::parse(csv).num("ratio").iter().enumerate() {
        assert!(*r >= 1.0, "row {i}: ratio {r}");
    }
}

/// steal-k: at QPS `qps`, k = 16's max flow is at most k = 0's
/// (admit-first).
pub fn steal_k_high_load(csv: &str, qps: u32) {
    let t = Csv::parse(csv);
    let flow = |k: &str| -> f64 {
        let (q, ks, flows) = (t.text("QPS"), t.text("k"), t.num("max flow (ms)"));
        let i = (0..flows.len())
            .find(|&i| q[i] == qps.to_string() && ks[i] == k)
            .unwrap_or_else(|| panic!("no row QPS {qps} k {k}"));
        flows[i]
    };
    let (k16, k0) = (flow("16"), flow("0"));
    assert!(
        k16 <= k0,
        "QPS {qps}: steal-16-first {k16} > admit-first {k0}"
    );
}

/// theory-fifo: every ratio is within the theorem's `3/ε`, and FIFO's max
/// flow does not rise with speed.
pub fn theory_fifo(csv: &str) {
    let t = Csv::parse(csv);
    let (ratio, bound) = (t.num("ratio"), t.num("bound 3/eps"));
    for i in 0..ratio.len() {
        assert!(
            ratio[i] > 0.0 && ratio[i] <= bound[i],
            "row {i}: {} > {}",
            ratio[i],
            bound[i]
        );
    }
    let (speed, flow) = (t.num("speed"), t.num("FIFO max flow"));
    for i in 1..flow.len() {
        assert!(
            speed[i] > speed[i - 1],
            "rows not in ascending speed: {speed:?}"
        );
        assert!(flow[i] <= flow[i - 1], "flow rises with speed: {flow:?}");
    }
}

/// variance: `runs` replicas per policy; FIFO's spread is 0 and every
/// policy's max is within 3× its min.
pub fn variance(csv: &str, runs: usize) {
    let t = Csv::parse(csv);
    let (policy, n, mean, std) = (
        t.text("policy"),
        t.num("runs"),
        t.num("mean (ms)"),
        t.num("std (ms)"),
    );
    let (min, max) = (t.num("min"), t.num("max"));
    for i in 0..policy.len() {
        assert_eq!(n[i], runs as f64, "{}", policy[i]);
        assert!(min[i] <= mean[i] && mean[i] <= max[i], "{}", policy[i]);
        assert!(
            max[i] <= 3.0 * min[i],
            "{}: {} vs {}",
            policy[i],
            min[i],
            max[i]
        );
    }
    let fifo = policy
        .iter()
        .position(|p| p.starts_with("FIFO"))
        .expect("a FIFO row");
    assert_eq!(std[fifo], 0.0);
    assert_eq!(min[fifo], max[fifo]);
}

/// scaling: QPS ∝ m, and both policies ≥ 0.99·OPT.
pub fn scaling(csv: &str) {
    let t = Csv::parse(csv);
    let (m, qps) = (t.num("m"), t.num("QPS (util 65%)"));
    for i in 1..m.len() {
        // Both QPS columns are rounded to integers.
        let want = qps[0] * m[i] / m[0];
        assert!(
            (qps[i] - want).abs() <= 0.5 * (1.0 + m[i] / m[0]),
            "{m:?} {qps:?}"
        );
    }
    let (opt, steal, admit) = (
        t.num("OPT (ms)"),
        t.num("steal-16 (ms)"),
        t.num("admit-first (ms)"),
    );
    for i in 0..opt.len() {
        assert!(
            steal[i] >= 0.99 * opt[i],
            "m {}: steal {} OPT {}",
            m[i],
            steal[i],
            opt[i]
        );
        assert!(
            admit[i] >= 0.99 * opt[i],
            "m {}: admit {} OPT {}",
            m[i],
            admit[i],
            opt[i]
        );
    }
}

/// scaling: at machine size `m`, steal-16-first's max flow is at most
/// admit-first's.
pub fn scaling_large_m(csv: &str, m: usize) {
    let t = Csv::parse(csv);
    let i = t
        .text("m")
        .iter()
        .position(|v| *v == m.to_string())
        .unwrap_or_else(|| panic!("no row m = {m}"));
    let (steal, admit) = (t.num("steal-16 (ms)")[i], t.num("admit-first (ms)")[i]);
    assert!(steal <= admit, "m {m}: steal-16 {steal} > admit {admit}");
}
