//! The `mvcom-lint` binary.
//!
//! ```text
//! mvcom-lint check [--root PATH] [--rules LIST] [--model NAME]
//!                                  # lints + interleaving proofs
//! mvcom-lint lint  [--root PATH] [--rules LIST]
//!                                  # token lints only
//! mvcom-lint model [--model NAME]  # interleaving proofs only
//! ```
//!
//! `--rules` takes `all` or a comma list (`D1,P1,W1`); `--model` takes
//! `all`, `none`, or one of `merge`, `deferred`. Every model
//! run also explores its deliberately broken twin and fails if the twin
//! is *not* caught — a proof is only trusted while the prover still has
//! teeth.
//!
//! Exit codes: `0` clean, `1` findings, a disproved schedule, or an
//! uncaught twin, `2` usage or I/O error — CI treats anything non-zero
//! as blocking.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use mvcom_lint::model::{deferred, merge};
use mvcom_lint::{lint_workspace, RuleSelection};

/// The shipped interleaving models, as `--model` understands them.
const MODEL_NAMES: [&str; 2] = ["merge", "deferred"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = None;
    let mut rules = RuleSelection::all();
    let mut models: Option<Vec<&str>> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "check" | "lint" | "model" if command.is_none() => {
                command = Some(arg.clone());
            }
            "--root" => match iter.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--rules" => match iter.next() {
                Some(list) => match RuleSelection::parse(list) {
                    Ok(sel) => rules = sel,
                    Err(err) => return usage(&err),
                },
                None => return usage("--rules needs `all` or a comma-separated rule list"),
            },
            "--model" => match iter.next() {
                Some(name) => match parse_models(name) {
                    Ok(list) => models = Some(list),
                    Err(err) => return usage(&err),
                },
                None => return usage("--model needs `all`, `none`, or a model name"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unrecognized argument `{other}`")),
        }
    }
    let Some(command) = command else {
        return usage("missing subcommand");
    };
    let root = root.unwrap_or_else(default_root);

    let mut failed = false;
    if command == "check" || command == "lint" {
        match lint_workspace(&root) {
            Ok(mut report) => {
                report.findings.retain(|f| rules.contains(f.rule));
                for finding in &report.findings {
                    println!("{finding}");
                }
                println!(
                    "mvcom-lint: {} file(s) scanned, {} finding(s)",
                    report.files_scanned,
                    report.findings.len()
                );
                failed |= !report.clean();
            }
            Err(err) => {
                eprintln!("mvcom-lint: cannot walk {}: {err}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    let run_models: &[&str] = match command.as_str() {
        "check" | "model" => match &models {
            Some(list) => list,
            None => &MODEL_NAMES,
        },
        _ => &[],
    };
    for name in run_models {
        failed |= !run_model(name);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_models(name: &str) -> Result<Vec<&'static str>, String> {
    match name {
        "all" => Ok(MODEL_NAMES.to_vec()),
        "none" => Ok(Vec::new()),
        other => MODEL_NAMES
            .iter()
            .find(|m| **m == other)
            .map(|m| vec![*m])
            .ok_or_else(|| {
                format!(
                    "unknown model `{other}` (expected all, none, {})",
                    MODEL_NAMES.join(", ")
                )
            }),
    }
}

/// Explores one shipped model at its default bounds, then its broken
/// twin. Prints one summary line per model; returns `false` when the
/// shipped protocol has a bad schedule *or* the twin goes uncaught.
fn run_model(name: &str) -> bool {
    match name {
        "merge" => {
            let config = merge::MergeConfig::default();
            let result = merge::explore(&config);
            if let Some(violation) = &result.violation {
                println!("mvcom-lint: ordered_map merge violation: {violation}");
                return false;
            }
            println!(
                "mvcom-lint: model merge proven safe \
                 ({} workers x {} tasks, {} states)",
                config.workers, config.tasks, result.states_explored
            );
            let twin = merge::explore(&merge::MergeConfig {
                model: merge::MergeModel::PushOrder,
                ..config
            });
            twin_caught("merge", "push-order", twin.violation.as_ref())
        }
        "deferred" => {
            let config = deferred::ObsConfig::default();
            let result = deferred::explore(&config);
            if let Some(violation) = &result.violation {
                println!("mvcom-lint: Obs capture-replay violation: {violation}");
                return false;
            }
            println!(
                "mvcom-lint: model deferred proven safe \
                 ({} workers x {} tasks x {} events, {} states)",
                config.workers, config.tasks, config.events, result.states_explored
            );
            let twin = deferred::explore(&deferred::ObsConfig {
                model: deferred::ObsModel::DirectEmit,
                ..config
            });
            twin_caught("deferred", "direct-emit", twin.violation.as_ref())
        }
        _ => unreachable!("parse_models only yields MODEL_NAMES"),
    }
}

fn twin_caught(model: &str, twin: &str, violation: Option<&mvcom_lint::Violation>) -> bool {
    match violation {
        Some(v) => {
            println!(
                "mvcom-lint: model {model}: {twin} twin caught ({}, schedule of {} steps)",
                v.invariant,
                v.schedule.len()
            );
            true
        }
        None => {
            println!(
                "mvcom-lint: model {model}: {twin} twin was NOT caught — \
                 the checker has lost its teeth"
            );
            false
        }
    }
}

/// The workspace root: `--root`, else two levels above this crate when
/// running from a checkout (`cargo run -p mvcom-lint`), else `.`.
fn default_root() -> PathBuf {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from);
    match compiled {
        Some(p) if p.join("Cargo.toml").is_file() => p,
        _ => PathBuf::from("."),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("mvcom-lint: {problem}\n\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
mvcom-lint: workspace-native static analysis for MVCom

USAGE:
    mvcom-lint <check|lint|model> [OPTIONS]

SUBCOMMANDS:
    check       lints (the seven token rules) + interleaving proofs
    lint        lints only
    model       interleaving proofs only (each model + its broken twin)

OPTIONS:
    --root PATH   workspace root to scan (default: the enclosing checkout)
    --rules LIST  `all` (default) or comma list of D1,P1,F1,T1,W1,U1,A0
    --model NAME  `all` (default), `none`, merge, or deferred
    -h, --help    this help
";
