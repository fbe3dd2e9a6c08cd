//! End-to-end test of the compiled `parflow` binary: real process spawn,
//! real argv, real exit codes.

use std::process::Command;

fn parflow(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_parflow"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn compare_succeeds_and_prints_table() {
    let out = parflow(&[
        "compare", "--dist", "finance", "--qps", "2000", "--jobs", "200", "--m", "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fifo"));
    assert!(stdout.contains("steal-16-first"));
    assert!(stdout.contains("max flow"));
}

#[test]
fn bad_command_exits_nonzero_with_usage() {
    let out = parflow(&["launch-missiles"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage:"));
}

#[test]
fn missing_flag_exits_nonzero() {
    let out = parflow(&["simulate", "--jobs", "10"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--scheduler"));
}

/// A misspelt flag used to be dropped and the paper's defaults run in its
/// place (exit 0, `n = 10000`); now it is a usage error naming the flag,
/// before anything is simulated.
#[test]
fn misspelt_and_repeated_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (
            &["simulate", "--scheduler", "fifo", "--job", "50"][..],
            "--job",
        ),
        (&["serve", "emit", "--qsp", "5"][..], "--qsp"),
        (&["sweep", "--grid", "smoke", "--seedz", "2"][..], "--seedz"),
        (
            &["sweep", "--grid", "smoke", "--prune-factor", "4"][..],
            "--prune-factor",
        ),
        (&["compare", "--m", "4", "--m", "8"][..], "--m"),
    ] {
        let out = parflow(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("{flag}: ")), "{args:?}: {stderr}");
        // A delegated command shows its own usage, not `simulate`'s.
        let root_usage = stderr.contains("parflow simulate");
        assert_eq!(
            root_usage,
            args[0] != "serve" && args[0] != "sweep",
            "{stderr}"
        );
    }
}

#[test]
fn dot_pipes_cleanly() {
    let out = parflow(&["dot", "--shape", "fork-join", "--depth", "2", "--leaf", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("digraph fork_join {"));
    assert!(stdout.contains("->"));
}

#[test]
fn generate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("parflow_cli_binary_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wl");
    let path_s = path.to_str().unwrap();

    let out = parflow(&[
        "generate", "--dist", "bing", "--qps", "3000", "--jobs", "80", "--out", path_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote 80 jobs"));

    let out = parflow(&["analyze", "--in", path_s, "--scheduler", "equi", "--m", "4"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("interval decomposition"));
    std::fs::remove_file(path).unwrap();
}

/// Valid plans run to completion however far into time they reach; a plan
/// that stalls every worker forever is a usage error naming `--faults`;
/// and a 10^12-round stall is jumped, not stepped.
#[test]
fn far_reaching_fault_plans_exit_cleanly() {
    let sim = |m: &str, jobs: &str, qps: &str, faults: &str| {
        let args = [
            "simulate",
            "--scheduler",
            "admit-first",
            "--m",
            m,
            "--jobs",
            jobs,
        ];
        parflow(&[&args[..], &["--qps", qps, "--faults", faults]].concat())
    };
    for plan in [
        "stall:0@5+18446744073709551615",
        "stall:0@0+18446744073709551000",
    ] {
        let out = sim("2", "50", "1000", plan);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{plan}: {out:?}");
        assert!(stdout.contains("50/50 jobs completed"), "{plan}: {stdout}");
    }
    let out = sim(
        "2",
        "50",
        "1000",
        "stall:0@0+18446744073709551615,stall:1@5+18446744073709551615",
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults: "));
    let started = std::time::Instant::now();
    let out = sim("1", "5", "10", "stall:0@0+1000000000000");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("5/5 jobs completed"));
    assert!(started.elapsed().as_secs_f64() < 1.0);
}

/// `exec --stream --faults` runs on the work-stealing policies and adds one
/// fault-accounting line; with `--policy fifo` the plan is a usage error.
#[test]
fn streamed_faults_run_on_work_stealing_only() {
    let base = [
        "exec", "--stream", "--jobs", "3000", "--m", "4", "--qps", "1000",
    ];
    let faults = ["--faults", "crash:1@500,slow:2x0.5,panic:0.01", "--certify"];
    let out = parflow(&[&base[..], &faults].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("faults: ")).count(),
        1
    );
    assert!(
        stdout.contains("certify: skipped (fault-injected run"),
        "{stdout}"
    );
    let out = parflow(&[&base[..], &["--policy", "fifo", "--faults", "crash:1@5"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--faults: "));
}
