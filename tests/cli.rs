//! Command-line contract of the `mvcom` binary.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::process::{Command, Stdio};

fn mvcom(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mvcom"))
        .args(args)
        .output()
        .expect("mvcom binary runs")
}

/// Retired solver names must be rejected like any other unknown solver,
/// not silently mapped to a survivor: parallel SE (`--solver se` is the
/// one SE, a single loop per round) and the node-budgeted exact search
/// (exhaustive enumeration is the one exact oracle).
#[test]
fn retired_parallel_se_and_exact_search_solvers_are_rejected_as_unknown() {
    // Spelled in pieces so a tree-wide grep for the retired names stays
    // empty.
    for retired in [["par", "se"].join("-"), ["b", "nb"].concat()] {
        let out = mvcom(&["solve", "--committees", "20", "--solver", &retired]);
        assert_eq!(out.status.code(), Some(1), "{retired} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown solver `{retired}`")),
            "stderr: {stderr}"
        );
    }
}

/// Every value the `--solver` help row lists runs and prints its name, so
/// the row and the solver table cannot drift apart.
#[test]
fn every_listed_solver_runs_and_prints_its_name() {
    let help = mvcom(&["solve", "--help"]);
    let help = String::from_utf8_lossy(&help.stdout);
    let row = help
        .lines()
        .find_map(|line| line.trim_start().strip_prefix("--solver "))
        .expect("solve --help lists --solver");
    let values = row.split_whitespace().next().expect("a value placeholder");
    for solver in values.split('|') {
        let out = mvcom(&[
            "solve",
            "--committees",
            "20",
            "--seed",
            "3",
            "--solver",
            solver,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--solver {solver} stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout).to_lowercase();
        assert!(
            stdout.starts_with(&format!("{solver} schedule over")),
            "--solver {solver} stdout: {stdout}"
        );
    }
}

/// A reader that hangs up used to panic the writer (exit 101, "failed
/// printing to stdout"). With the read end closed before the first line,
/// the run ends with exit 1 and nothing on stderr.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mvcom"))
        .args(["simulate", "--nodes", "24", "--epochs", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mvcom binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("mvcom exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.is_empty(), "stderr: {stderr}");
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

/// `--help` / `-h` after a subcommand prints that subcommand's flag table
/// on stdout and exits 0 (it used to answer `--help needs a value`, then
/// printed the usage on stderr everywhere but `daemon`).
#[test]
fn subcommand_help_prints_usage_and_succeeds() {
    for (args, names) in [
        (&["solve", "--help"][..], "--solver"),
        (&["solve", "--solver", "se", "-h"][..], "--solver"),
        (&["simulate", "--help"][..], "--chaos-drop"),
        (&["dataset", "--help"][..], "dataset stats <FILE>"),
        (&["dataset", "generate", "-h"][..], "--blocks"),
        (&["daemon", "--seed", "1", "--help"][..], "--epoch-reports"),
        (&["--help"][..], "mvcom daemon"),
    ] {
        let out = mvcom(args);
        assert!(out.status.success(), "{args:?} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage:"), "{args:?} stdout: {stdout}");
        assert!(stdout.contains(names), "{args:?} stdout: {stdout}");
        assert!(out.stderr.is_empty(), "{args:?} wrote to stderr");
    }
    // Errors keep the usage on stderr and leave stdout empty.
    let out = mvcom(&["solve", "--solver", "nonsense"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:") && stderr.contains("usage:"));
}

/// `solve --obs-out --seed 3` used to take `--seed` as the file name,
/// drop the `3` and solve with seed 0. A value that is itself a flag, and
/// an argument no subcommand declares, must both fail before any work.
#[test]
fn flag_shaped_values_and_stray_positionals_are_rejected() {
    let dir = std::env::temp_dir().join(format!("mvcom-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_mvcom"))
        .current_dir(&dir)
        .args(["solve", "--committees", "20", "--obs-out", "--seed", "3"])
        .output()
        .expect("mvcom binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--obs-out needs a value"), "{stderr}");
    assert!(
        !dir.join("--seed").exists(),
        "a file named --seed was written"
    );
    let _ = std::fs::remove_dir_all(&dir);

    for (args, stray, subcommand) in [
        (&["solve", "3"][..], "3", "solve"),
        (
            &["simulate", "--epochs", "1", "fast"][..],
            "fast",
            "simulate",
        ),
        (&["daemon", "now"][..], "now", "daemon"),
        (
            &["dataset", "generate", "out.json"][..],
            "out.json",
            "dataset generate",
        ),
        (
            &["dataset", "stats", "a.json", "b.json"][..],
            "b.json",
            "dataset stats",
        ),
    ] {
        let out = mvcom(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "unexpected argument `{stray}` for `mvcom {subcommand}`"
            )),
            "{args:?} stderr: {stderr}"
        );
    }
}

/// The two count-valued alert thresholds used to go through `f64 as u64`:
/// `-1` armed the alert at 0 and `2.9` at 2. Utility stays a float, and
/// may be negative.
#[test]
fn count_valued_alert_thresholds_must_be_whole_and_non_negative() {
    for (flag, raw) in [
        ("--alert-min-admitted", "-1"),
        ("--alert-max-quarantined", "2.9"),
    ] {
        let out = mvcom(&["daemon", "--epochs", "1", flag, raw]);
        assert!(!out.status.success(), "{flag} {raw} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} got `{raw}`, not a valid u64")),
            "stderr: {stderr}"
        );
    }
    let dir = std::env::temp_dir().join(format!("mvcom-cli-alerts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let history = dir.join("history.log");
    let out = mvcom(&[
        "daemon",
        "--epochs",
        "1",
        "--se-iters",
        "50",
        "--alert-min-utility",
        "-2.5",
        "--alert-min-admitted",
        "3",
        "--history",
        history.to_str().expect("utf-8 temp path"),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `on|off` reader, one error text, whichever flag it is.
#[test]
fn on_off_switches_share_one_error_text() {
    for (args, flag) in [
        (&["simulate", "--defense", "maybe"][..], "--defense"),
        (&["daemon", "--defense", "maybe"][..], "--defense"),
        (&["daemon", "--resume", "maybe"][..], "--resume"),
    ] {
        let out = mvcom(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} takes on|off, got `maybe`")),
            "{args:?} stderr: {stderr}"
        );
    }
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

/// The reputation layer guards the SE scheduler only. Under the default
/// `--scheduler all` an adversarial run used to print `defense on` for a
/// defense that never ran.
#[test]
fn the_defense_label_names_the_runner_that_ran() {
    for (scheduler, label) in [("all", "defense off"), ("se", "defense on")] {
        let out = mvcom(&[
            "simulate",
            "--nodes",
            "60",
            "--epochs",
            "1",
            "--seed",
            "5",
            "--adv-fraction",
            "0.33",
            "--adv-strategy",
            "starver",
            "--scheduler",
            scheduler,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(label), "--scheduler {scheduler}: {stdout}");
    }
}

/// Adversaries and faults run in one epoch: the run used to be refused
/// with "adversarial mode does not compose". Each epoch reports both.
#[test]
fn adversaries_and_faults_compose_in_one_run() {
    let out = mvcom(&[
        "simulate",
        "--nodes",
        "240",
        "--epochs",
        "2",
        "--seed",
        "5",
        "--scheduler",
        "se",
        "--adv-fraction",
        "0.33",
        "--adv-strategy",
        "starver",
        "--defense",
        "on",
        "--crash",
        "1@2500",
        "--chaos-drop",
        "0.1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count = |prefix: &str| {
        stdout
            .lines()
            .filter(|l| l.trim_start().starts_with(prefix))
            .count()
    };
    assert_eq!(count("epoch "), 2, "stdout: {stdout}");
    assert_eq!(count("adversary:"), 2, "stdout: {stdout}");
    assert_eq!(count("robustness:"), 2, "stdout: {stdout}");
    assert!(stdout.contains("defense on"), "stdout: {stdout}");
}

/// Operands that used to reach a panicking constructor (`SimTime::from_secs`,
/// `Trace::generate`), wrap `IDX + 1` onto the final committee's node, or
/// arm an alert that can never fire. The CLI is the boundary: each is a
/// config error that names its flag.
#[test]
fn out_of_domain_operands_are_config_errors_not_panics() {
    let simulate = ["simulate", "--nodes", "60", "--epochs", "1"];
    for (args, message) in [
        (
            &["dataset", "generate", "--blocks", "0"][..],
            "--blocks 0: ",
        ),
        (
            &[&simulate[..], &["--heartbeat", "nan"]].concat(),
            "--heartbeat takes seconds >= 0, got `nan`",
        ),
        (
            &[&simulate[..], &["--heartbeat", "-1"]].concat(),
            "--heartbeat takes seconds >= 0, got `-1`",
        ),
        (
            // 7.2e9 heartbeat rounds: refused before stage 1, not run.
            &[&simulate[..], &["--heartbeat", "1e-6"]].concat(),
            "`interval`: at most 1000000 heartbeat rounds per epoch",
        ),
        (
            &[&simulate[..], &["--crash", "1@nan"]].concat(),
            "--crash takes seconds >= 0, got `nan`",
        ),
        (
            &[&simulate[..], &["--crash", "1@-5"]].concat(),
            "--crash takes seconds >= 0, got `-5`",
        ),
        (
            &[&simulate[..], &["--crash", "1@5..inf"]].concat(),
            "--crash takes seconds >= 0, got `inf`",
        ),
        (
            &[&simulate[..], &["--crash", "4294967295@5"]].concat(),
            "`4294967295@5`: IDX must be an integer below 4294967295",
        ),
        (
            &[&simulate[..], &["--crash", "99999999999@5"]].concat(),
            "`99999999999@5`: IDX must be an integer below 4294967295",
        ),
        (
            &["daemon", "--alert-min-utility", "nan"][..],
            "--alert-min-utility takes a finite number, got `nan`",
        ),
        (
            &["simulate", "--nodes", "4294967295", "--epochs", "1"][..],
            "`n_nodes`: at most 1048576 nodes, got 4294967295",
        ),
        (
            &["simulate", "--nodes", "100000000", "--epochs", "1"][..],
            "`n_nodes`: at most 1048576 nodes, got 100000000",
        ),
    ] {
        let out = mvcom(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr: {stderr}");
        assert!(stderr.contains(message), "{args:?} stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} stderr: {stderr}");
    }
}

/// `solve` (one SE loop per round) and `simulate` (committees in order)
/// take no worker count: both refuse `--threads` by name.
#[test]
fn threads_is_refused_by_solve_and_simulate() {
    for (sub, size_flag, size) in [
        ("solve", "--committees", "20"),
        ("simulate", "--nodes", "60"),
    ] {
        let out = mvcom(&[sub, size_flag, size, "--threads", "2"]);
        assert_eq!(out.status.code(), Some(1), "{sub}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `--threads` for `mvcom {sub}`")),
            "stderr: {stderr}"
        );
    }
}

/// Telemetry that cannot be written used to be dropped with exit 0: every
/// `--obs-out` path now fails the run and names the file.
#[test]
fn unwritable_telemetry_fails_the_run() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("mvcom-cli-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let history = dir.join("history.log");
    let history = history.to_str().expect("utf-8 temp path");
    for args in [
        &["simulate", "--nodes", "60", "--epochs", "1"][..],
        &["solve", "--committees", "40"][..],
        &[
            "daemon",
            "--epochs",
            "1",
            "--resume",
            "off",
            "--history",
            history,
        ][..],
    ] {
        let out = mvcom(&[args, &["--obs-out", "/dev/full"]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains("--obs-out /dev/full: "),
            "{args:?} stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A daemon that fails past its flags — a malformed feed line, a corrupt
/// history — names the failing layer and prints no usage: the flags were
/// fine. It used to read `error: invalid configuration `daemon`: …`
/// followed by the whole usage.
#[test]
fn daemon_run_time_failures_are_not_configuration_errors() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("mvcom-cli-runtime-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("history.log");
    let history = path.to_str().expect("utf-8 temp path");
    let daemon = |source: &str, resume: &str, feed: &str| {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mvcom"))
            .args(["daemon", "--source", source, "--epochs", "1"])
            .args(["--resume", resume, "--history", history])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("mvcom binary runs");
        let mut stdin = child.stdin.take().expect("piped stdin");
        stdin.write_all(feed.as_bytes()).expect("feed written");
        drop(stdin);
        child.wait_with_output().expect("mvcom exits")
    };
    let feed = "{\"committee\":tru,\"txs\":900,\"latency_s\":700.5}\n";
    let malformed = daemon("stdin", "off", feed);
    std::fs::write(&path, "not a history log").expect("corrupt history");
    let corrupt = daemon("seeded", "on", "");
    for (out, says) in [
        (
            malformed,
            "error: ingest error: line 1: malformed report: committee: invalid literal `tru`",
        ),
        (corrupt, "error: history log error: "),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(stderr.starts_with(says), "stderr: {stderr}");
        assert!(!stderr.contains("usage:"), "stderr: {stderr}");
        assert!(
            !stderr.contains("invalid configuration"),
            "stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
