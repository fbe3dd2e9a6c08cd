//! Workload persistence round-trips and simulation reproducibility from
//! saved instances.

use parflow::prelude::*;
use parflow::workloads::trace_io::{load_instance, save_instance};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Save `inst` under `name` in a scratch directory and load it back.
fn roundtrip(inst: &Instance, name: &str) -> Instance {
    let dir = std::env::temp_dir().join("parflow_persistence_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    save_instance(inst, &path).unwrap();
    let loaded = load_instance(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    loaded
}

#[test]
fn roundtrip_is_exact_job_for_job() {
    let fig2 = WorkloadSpec::paper_fig2(DistKind::Bing, 900.0, 200, 12).generate();
    let finance = WorkloadSpec::paper_fig2(DistKind::Finance, 1200.0, 100, 8).generate();
    let weighted = Instance::new(
        finance
            .jobs()
            .iter()
            .map(|j| Job::weighted(j.id, j.arrival, 1 + u64::from(j.id) % 7, j.dag.clone()))
            .collect(),
    );
    // Every job of the adversarial instance shares one `Arc<JobDag>`.
    let shared = lower_bound_instance(30, 60);
    for (name, inst) in [("fig2", fig2), ("weighted", weighted), ("shared", shared)] {
        let back = roundtrip(&inst, name);
        assert_eq!(back.len(), inst.len(), "{name}");
        for (a, b) in inst.jobs().iter().zip(back.jobs()) {
            assert_eq!((a.id, a.arrival, a.weight), (b.id, b.arrival, b.weight));
            assert_eq!(*a.dag, *b.dag, "{name}: job {}", a.id);
            assert_eq!(a.dag.topo_order(), b.dag.topo_order());
        }
        assert_eq!(distinct_dags(&back), distinct_dags(&inst), "{name}");
    }
}

/// The distinct `Arc<JobDag>` allocations of `inst`.
fn distinct_dags(inst: &Instance) -> usize {
    let ptrs: BTreeSet<_> = inst.jobs().iter().map(|j| Arc::as_ptr(&j.dag)).collect();
    ptrs.len()
}

#[test]
fn saved_instance_reproduces_simulation() {
    let inst = WorkloadSpec::paper_fig2(DistKind::Finance, 1200.0, 300, 8).generate();
    let loaded = roundtrip(&inst, "fin");
    let cfg = SimConfig::new(8).with_free_steals();
    let policy = StealPolicy::StealKFirst { k: 16 };
    let a = simulate_worksteal(&inst, &cfg, policy, 5);
    let b = simulate_worksteal(&loaded, &cfg, policy, 5);
    assert_eq!(a.max_flow(), b.max_flow());
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.flow, y.flow);
    }
}

#[test]
fn opt_is_stable_across_roundtrip() {
    let inst = WorkloadSpec::paper_fig2(DistKind::Bing, 900.0, 200, 12).generate();
    let loaded = roundtrip(&inst, "bing");
    assert_eq!(opt_max_flow(&inst, 16), opt_max_flow(&loaded, 16));
}
