//! `parflow-certify cell` through a real process: the shared flag grammar
//! and the shared `dist` / policy spellings.

use std::process::Command;

fn certify(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_parflow-certify"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn every_dist_and_policy_spelling_certifies_clean() {
    for (dist, policy) in [
        ("log-normal", "steal-4-first"),
        ("lognormal", "steal:4"),
        ("Bing", "admit-first"),
        ("finance", "fifo"),
    ] {
        let out = certify(&[
            "cell", "--dist", dist, "--policy", policy, "--jobs", "60", "--m", "2",
        ]);
        assert!(
            out.status.success(),
            "{dist} {policy}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("all clean"));
    }
}

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, needle) in [
        (&["cell", "--jobz", "60"][..], "--jobz: unknown flag"),
        (
            &["cell", "--m", "2", "--m", "2"][..],
            "--m: given more than once",
        ),
        (&["cell", "--dist", "zipf"][..], "--dist: bad value 'zipf'"),
        (
            &["cell", "--policy", "bwf"][..],
            "--policy: bad value 'bwf'",
        ),
        (&["cell", "--eps", "half"][..], "--eps wants A/B"),
        // Numbers that parse but name no speed or load: once a panic in
        // `Speed::new`, a wrapped `den + num`, a panic in the arrival
        // process.
        (&["cell", "--eps", "1/0"][..], "zero denominator"),
        (
            &["cell", "--eps", "18446744073709551615/2"][..],
            "1 + eps overflows",
        ),
        (&["cell", "--util", "inf"][..], "finite --util > 0"),
        (&["cell", "--jobs"][..], "--jobs: needs a value"),
    ] {
        let out = certify(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} certified something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
