//! The `repro` binary's argument edge, through a real process: flags and
//! experiment names mix in any order, and an unknown or repeated flag or
//! an unknown name is exit 2 before any experiment runs.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("PARFLOW_JOBS", "200")
        .output()
        .expect("binary runs")
}

#[test]
fn list_is_the_experiment_table_and_names_validate_against_it() {
    let out = repro(&["--list"]);
    assert!(out.status.success());
    let names = String::from_utf8_lossy(&out.stdout);
    assert_eq!(names.lines().next(), Some("fig2-bing"));
    // Every listed name is accepted (`--list` after names still only lists).
    let mut args: Vec<&str> = names.lines().collect();
    args.push("--list");
    assert!(repro(&args).status.success());
}

#[test]
fn flags_and_names_mix_and_a_bare_flag_does_not_eat_a_name() {
    let out = repro(&["--stream", "fig3", "--jobs", "300"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Figure 3"), "{stdout}");
    assert!(
        stdout.contains("streamed 300 jobs on 16 workers"),
        "{stdout}"
    );
}

#[test]
fn bad_invocations_exit_2_before_any_experiment() {
    for (args, needle) in [
        (&["--list", "--bogus"][..], "--bogus"),
        (&["fig3", "--bogus", "1"][..], "--bogus: unknown flag"),
        (
            &["fig3", "--jobs", "1", "--jobs", "2"][..],
            "--jobs: given more than once",
        ),
        (&["fig3", "--jobs", "many"][..], "--jobs: bad value 'many'"),
        (&["fig3", "nosuch"][..], "unknown experiment `nosuch`"),
        (
            &["sweep", "--grid", "smoke", "--bogus", "1"][..],
            "--bogus: unknown flag",
        ),
        (
            &["sweep", "--resume", "--resume"][..],
            "--resume: given more than once",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
