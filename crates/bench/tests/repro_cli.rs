//! The `repro` binary's command-line contract: what it rejects, that it
//! rejects it before doing any work, and what `--list` shows.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use std::path::PathBuf;
use std::process::{Command, Output};

use mvcom_bench::experiments::FIGURES;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .unwrap()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).to_string()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvcom-repro-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn an_unknown_figure_is_rejected_before_anything_runs_or_is_written() {
    let out = scratch("unknown");
    let output = repro(&[
        "fig9a",
        "nosuchfig",
        "--quick",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty(), "nothing may have started");
    assert!(!out.exists(), "--out must not have been created");
    let err = stderr(&output);
    assert!(err.contains("unknown figure `nosuchfig`"), "{err}");
    for figure in FIGURES {
        assert!(
            err.contains(figure.name),
            "{} not offered: {err}",
            figure.name
        );
    }
}

#[test]
fn malformed_flags_exit_1_with_the_usage_on_stderr() {
    for (args, complaint) in [
        (
            &["fig9a", "--threads", "0"][..],
            "--threads must be an integer >= 1, got `0`",
        ),
        (
            &["fig9a", "--threads", "x"][..],
            "--threads must be an integer >= 1, got `x`",
        ),
        (
            &["fig9a", "--threads", "-2"][..],
            "--threads must be an integer >= 1, got `-2`",
        ),
        (
            &["fig9a", "--threads", "1.5"][..],
            "--threads must be an integer >= 1, got `1.5`",
        ),
        (&["fig9a", "--threads"][..], "--threads needs a count"),
        (&["fig9a", "--out"][..], "--out needs a directory"),
        (&["fig9a", "--thread", "4"][..], "unknown flag `--thread`"),
    ] {
        let output = repro(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let err = stderr(&output);
        assert!(err.contains(complaint), "{args:?}: {err}");
        assert!(
            err.contains("usage: repro <figure…|all>"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn list_prints_every_figure_and_the_same_usage_as_the_error_path() {
    let listed = repro(&["--list"]);
    assert_eq!(listed.status.code(), Some(0));
    let text = String::from_utf8_lossy(&listed.stdout).to_string();
    for figure in FIGURES {
        assert!(text.contains(&format!("| `{}` |", figure.name)), "{text}");
    }
    let usage = text.lines().last().unwrap();
    assert!(usage.starts_with("usage: repro"), "{text}");
    assert!(stderr(&repro(&["--bogus"])).contains(usage));
    // No figure named is the same as asking for the list.
    assert_eq!(repro(&[]).stdout, listed.stdout);
}

#[test]
fn a_quick_figure_runs_writes_and_renders() {
    let out = scratch("fig9a");
    let output = repro(&["fig9a", "--quick", "--svg", "--out", out.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(text.starts_with("=== fig9a (Quick) ===\n"), "{text}");
    assert!(text.ends_with("all shape checks passed\n"), "{text}");
    for file in FIGURES.iter().find(|f| f.name == "fig9a").unwrap().files {
        assert!(out.join(file).is_file(), "{file}");
    }
    assert!(text.contains("rendered "), "{text}");
    let _ = std::fs::remove_dir_all(&out);
}
