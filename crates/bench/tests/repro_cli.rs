//! The `repro` binary's argument edge, through a real process: flags and
//! experiment names mix in any order, and an unknown or repeated flag, an
//! unknown name, a `--jobs` nothing reads or a sizing variable
//! (`PARFLOW_JOBS`, `PARFLOW_SEED`, `PARFLOW_THREADS`) that does not parse
//! is exit 2 before any experiment runs.

use std::process::{Command, Output};

/// `repro args` at `PARFLOW_JOBS=200`, with `env` set on top.
fn repro_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args)
        .env_remove("PARFLOW_SEED")
        .env_remove("PARFLOW_THREADS")
        .env("PARFLOW_JOBS", "200");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn repro(args: &[&str]) -> Output {
    repro_env(args, &[])
}

fn assert_usage_error(out: &Output, what: &str, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "{what}");
    assert!(out.stdout.is_empty(), "{what} ran something");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{what}: {stderr}");
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
    // A name after the bare `--list` is still a name: it is checked
    // against the table, so a good one lists and a bad one is refused.
    let out = repro(&["--list", "fig3", "--csv", "unused"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, repro(&["--list"]).stdout);
    assert_usage_error(
        &repro(&["--list", "nosuch"]),
        "--list nosuch",
        "unknown experiment `nosuch`",
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
        // The streaming trajectory is `parflow exec --stream`.
        (&["--stream", "fig3"][..], "--stream: unknown flag"),
        (
            &["sweep", "--grid", "smoke", "--bogus", "1"][..],
            "--bogus: unknown flag",
        ),
        (
            &["sweep", "--resume", "--resume"][..],
            "--resume: given more than once",
        ),
    ] {
        assert_usage_error(&repro(args), &format!("{args:?}"), needle);
    }
}

#[test]
fn jobs_flag_is_rejected_where_nothing_reads_it() {
    assert_usage_error(
        &repro(&["fig2-bing", "--jobs", "7"]),
        "fig2-bing --jobs 7",
        "--jobs: only serve-soak reads it",
    );
    // `serve-soak` reads it; `--list` names serve-soak too.
    assert!(repro(&["--list", "--jobs", "7"]).status.success());
    assert!(repro(&["serve-soak", "--list", "--jobs", "7"])
        .status
        .success());
}

#[test]
fn sizing_variables_parse_strictly() {
    for (var, value, needle) in [
        ("PARFLOW_JOBS", "abc", "PARFLOW_JOBS: bad value 'abc'"),
        ("PARFLOW_JOBS", "0", "PARFLOW_JOBS: bad value '0'"),
        ("PARFLOW_JOBS", "", "PARFLOW_JOBS: bad value ''"),
        (
            "PARFLOW_JOBS",
            "4294967296",
            "PARFLOW_JOBS: bad value '4294967296'",
        ),
        ("PARFLOW_SEED", "xyz", "PARFLOW_SEED: bad value 'xyz'"),
        ("PARFLOW_SEED", "0xg", "PARFLOW_SEED: bad value '0xg'"),
        ("PARFLOW_THREADS", "abc", "PARFLOW_THREADS: bad value 'abc'"),
        ("PARFLOW_THREADS", "0", "PARFLOW_THREADS: bad value '0'"),
    ] {
        let what = format!("{var}={value}");
        assert_usage_error(&repro_env(&["fig3"], &[(var, value)]), &what, needle);
    }
    let sweep = repro_env(&["sweep"], &[("PARFLOW_THREADS", "abc")]);
    assert_usage_error(&sweep, "sweep PARFLOW_THREADS=abc", "PARFLOW_THREADS");
}

#[test]
fn the_default_seed_reads_the_same_in_hex_and_decimal() {
    let stdout = |seed: Option<&str>| {
        let env: Vec<(&str, &str)> = seed.map(|s| ("PARFLOW_SEED", s)).into_iter().collect();
        let out = repro_env(&["theory-fifo"], &env);
        assert!(out.status.success(), "{seed:?}");
        out.stdout
    };
    let default = stdout(None);
    assert_eq!(stdout(Some("0x9af1")), default);
    assert_eq!(stdout(Some("39665")), default);
    assert_ne!(stdout(Some("39666")), default);
}
