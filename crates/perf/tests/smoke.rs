//! The benchmark tested as a program: every workload at smoke size, both
//! run kinds, and the declarations held against `BENCHMARK.json`.

use parflow_perf::compare::{compare, ResultSet};
use parflow_perf::spec::{self, Kind, MetricDecl};
use parflow_perf::{json, pass_json, result_set_json, run_one, Opts, Report, Scale};

fn smoke(workload: &str, trace: bool) -> Report {
    run_one(&Opts {
        workload: workload.to_string(),
        seed: spec::DEFAULT_SEED,
        seconds: 0.0,
        trace,
        scale: Scale::Smoke,
    })
    .unwrap_or_else(|e| panic!("{workload} (trace {trace}) did not run: {e}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_emits(report: &Report, declared: &[MetricDecl]) {
    let emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    let names: Vec<&str> = declared.iter().map(|d| d.name).collect();
    assert_eq!(emitted, names, "{}: metric names", report.workload);
    for m in &report.metrics {
        assert!(well_formed(m.name), "bad metric name {:?}", m.name);
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    assert_eq!(
        report.tally.failed, 0,
        "{}: failed operations",
        report.workload
    );
    assert!(report.tally.attempted >= 1 && report.correct());
    // The driver's line: exactly four keys, every metric a number.
    let line = json::parse(&report.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("metrics").map(|m| m.members().len()),
        Some(declared.len())
    );
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    for w in spec::WORKLOADS {
        let report = smoke(w.name, false);
        assert_emits(&report, spec::END_TO_END);
        for name in ["wall_s", "setup_s"] {
            assert!(
                report.value(name).is_some_and(|v| v > 0.0),
                "{}: {name}",
                w.name
            );
        }
    }
}

#[test]
fn every_workload_reports_every_layer_metric_and_exact_ones_repeat() {
    for w in spec::WORKLOADS {
        let (first, second) = (smoke(w.name, true), smoke(w.name, true));
        assert_emits(&first, spec::PER_LAYER);
        for d in spec::PER_LAYER.iter().filter(|d| d.kind == Kind::Exact) {
            assert_eq!(
                first.value(d.name).map(f64::to_bits),
                second.value(d.name).map(f64::to_bits),
                "{}: exact metric {} moved between two runs of one seed",
                w.name,
                d.name
            );
        }
        let attributed = first.value("trace.attributed_share").expect("declared");
        assert!(
            (0.0..=1.0).contains(&attributed),
            "{}: {attributed}",
            w.name
        );
    }
}

#[test]
fn a_result_set_compared_with_itself_has_no_regression() {
    let results: Vec<(String, String)> = ["sim_fig2", "sim_stream"]
        .iter()
        .map(|w| (w.to_string(), smoke(w, false).result_line()))
        .collect();
    let doc = result_set_json(
        "test",
        0.0,
        &[pass_json(spec::DEFAULT_SEED, false, &results)],
    );
    assert!(doc.trim_end().ends_with("\"claim\": null}"));
    let set = ResultSet::parse(&doc).expect("own output parses");
    let comparison = compare(&set, &set);
    assert!(comparison.passes(), "{}", comparison.render());
    assert_eq!(comparison.rows.len(), 2 * (spec::END_TO_END.len() + 1));
}

#[test]
fn benchmark_json_lists_exactly_what_perf_list_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the workspace root");
    let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let field = |v: &json::Value, key: &str| -> String {
        v.get(key)
            .and_then(json::Value::as_str)
            .unwrap_or("")
            .to_string()
    };

    let workloads: Vec<(String, String)> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let declared: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, declared);
    assert!(declared
        .iter()
        .all(|(n, why)| well_formed(n) && why.len() <= 200));

    for (key, decls) in [
        ("end_to_end", spec::END_TO_END),
        ("per_layer", spec::PER_LAYER),
    ] {
        let listed: Vec<(String, String, String)> = doc
            .get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let declared: Vec<(String, String, String)> = decls
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.name().to_string(),
                )
            })
            .collect();
        assert_eq!(listed, declared, "{key}");
        for (m, d) in doc.get(key).expect(key).items().iter().zip(decls) {
            let bound = m.get("bound").and_then(json::Value::as_f64);
            match d.kind {
                Kind::EndToEnd { bound: b } => assert_eq!(bound, Some(b), "{}", d.name),
                _ => assert_eq!(bound, None, "{} must carry no bound", d.name),
            }
        }
    }
    assert_eq!(
        doc.get("run_seconds").and_then(json::Value::as_f64),
        Some(spec::DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths").map(|p| p.items().to_vec()),
        Some(vec![json::Value::Str("crates/perf".to_string())])
    );
}
