//! Post-processor for the JSONL telemetry documented in OBSERVABILITY.md.
//!
//! ```text
//! obs_report <events.jsonl>...
//! obs_report --schema-md      # the "Event kinds" section of OBSERVABILITY.md
//! ```
//!
//! For each file, prints:
//!
//! * **mixing** — from the `se_improve` stream: the iteration of the last
//!   improvement, the improvement count, and the area under the
//!   best-so-far curve (from `se_point`). A `last_improvement_iter` close
//!   to the budget means the run was cut off while still improving.
//! * **flat chains** — `se_chain_point` series whose utility never moved:
//!   chains stuck in an infeasible region from their seed solution.
//! * **recovery** — suspicion samples, declared failures, and submission
//!   retries from a fault-tolerant epoch run.
//!
//! Sections with no matching events are omitted.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Value;

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths == ["--schema-md"] {
        print!("{}", mvcom_obs::schema::render_markdown());
        return ExitCode::SUCCESS;
    }
    if paths.is_empty() || paths.iter().any(|p| p.starts_with('-')) {
        eprintln!("usage: obs_report <events.jsonl>... | obs_report --schema-md");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        if paths.len() > 1 {
            println!("=== {path} ===");
        }
        match std::fs::read_to_string(path) {
            Ok(text) => report(&text),
            Err(e) => {
                eprintln!("error: reading {path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Looks up a field of a JSON object line.
fn field<'a>(line: &'a Value, key: &str) -> Option<&'a Value> {
    match line {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(v: Option<&Value>) -> Option<u64> {
    match v? {
        Value::U64(x) => Some(*x),
        Value::I64(x) => u64::try_from(*x).ok(),
        Value::F64(x) if x.fract() == 0.0 && *x >= 0.0 => Some(*x as u64),
        _ => None,
    }
}

fn as_f64(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn as_str(v: Option<&Value>) -> Option<&str> {
    match v? {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn report(text: &str) {
    let mut lines = 0u64;
    let mut unparseable = 0u64;
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();

    // Mixing.
    let mut last_improvement_iter = 0u64;
    let mut improvements = 0u64;
    let mut best_curve: Vec<(u64, f64)> = Vec::new();
    let mut converged: Option<(u64, f64, bool)> = None;

    // Chain flatness: (replica, chain) -> (cardinality, first utility,
    // sample count, has the utility ever moved).
    let mut chains: BTreeMap<(u64, u64), (u64, f64, u64, bool)> = BTreeMap::new();

    // Recovery.
    let mut suspicions = 0u64;
    let mut failures: Vec<u64> = Vec::new();
    let mut retries = 0u64;

    // Baseline solvers: name -> (iters, best) from `solver_done`.
    let mut solvers: Vec<(String, u64, f64)> = Vec::new();

    for raw in text.lines() {
        if raw.trim().is_empty() {
            continue;
        }
        lines += 1;
        let Ok(line) = serde_json::from_str_value(raw) else {
            unparseable += 1;
            continue;
        };
        let Some(kind) = as_str(field(&line, "kind")) else {
            unparseable += 1;
            continue;
        };
        *kinds.entry(kind.to_string()).or_insert(0) += 1;
        match kind {
            "se_improve" => {
                improvements += 1;
                if let Some(iter) = as_u64(field(&line, "iter")) {
                    last_improvement_iter = last_improvement_iter.max(iter);
                }
            }
            "se_point" => {
                if let (Some(iter), Some(best)) = (
                    as_u64(field(&line, "iter")),
                    as_f64(field(&line, "best_so_far")),
                ) {
                    best_curve.push((iter, best));
                }
            }
            "se_converged" => {
                converged = Some((
                    as_u64(field(&line, "iter")).unwrap_or(0),
                    as_f64(field(&line, "best")).unwrap_or(f64::NAN),
                    matches!(field(&line, "converged"), Some(Value::Bool(true))),
                ));
            }
            "se_chain_point" => {
                if let (Some(g), Some(c), Some(u)) = (
                    as_u64(field(&line, "replica")),
                    as_u64(field(&line, "chain")),
                    as_f64(field(&line, "utility")),
                ) {
                    let card = as_u64(field(&line, "card")).unwrap_or(0);
                    let entry = chains.entry((g, c)).or_insert((card, u, 0, false));
                    entry.2 += 1;
                    if (u - entry.1).abs() > 1e-9 {
                        entry.3 = true;
                    }
                }
            }
            "suspicion" => suspicions += 1,
            "failure_declared" => {
                if let Some(c) = as_u64(field(&line, "committee")) {
                    failures.push(c);
                }
            }
            "submission_retry" => retries += 1,
            "solver_done" => {
                if let (Some(s), Some(iters), Some(best)) = (
                    as_str(field(&line, "solver")),
                    as_u64(field(&line, "iters")),
                    as_f64(field(&line, "best")),
                ) {
                    solvers.push((s.to_string(), iters, best));
                }
            }
            _ => {}
        }
    }

    println!(
        "events: {lines} lines, {} kinds, {unparseable} unparseable",
        kinds.len()
    );
    if improvements > 0 || converged.is_some() {
        print!("mixing: last_improvement_iter={last_improvement_iter} improvements={improvements}");
        if let Some((iter, best, conv)) = converged {
            print!(" final_iter={iter} best={best} converged={conv}");
        }
        if let Some(auc) = area_under_curve(&best_curve) {
            print!(" auc={auc:.1}");
        }
        println!();
    }
    let flat: Vec<_> = chains
        .iter()
        .filter(|(_, (_, _, samples, moved))| *samples >= 2 && !moved)
        .collect();
    if !flat.is_empty() {
        println!("flat chains ({} of {}):", flat.len(), chains.len());
        for ((g, c), (card, first, samples, _)) in flat {
            println!(
                "  replica {g} chain {c} (card {card}): stuck at {first:.1} over {samples} samples"
            );
        }
    }
    if !solvers.is_empty() {
        let best = solvers
            .iter()
            .map(|(_, _, b)| *b)
            .fold(f64::NEG_INFINITY, f64::max);
        println!("solvers:");
        for (name, iters, b) in &solvers {
            println!(
                "  {name}: iters={iters} best={b}{}",
                if *b >= best { "  <-- winner" } else { "" }
            );
        }
    }
    if suspicions + retries > 0 || !failures.is_empty() {
        println!(
            "recovery: suspicions={suspicions} failures={} retries={retries}{}",
            failures.len(),
            if failures.is_empty() {
                String::new()
            } else {
                format!(
                    " (committees: {})",
                    failures
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            }
        );
    }
}

/// Trapezoidal area under the best-so-far curve, normalized by the covered
/// iteration span (i.e. the mean best-so-far utility). `None` without at
/// least two samples spanning distinct iterations, or when the iteration
/// axis is not monotone — a file holding several SE runs (e.g. one per
/// epoch) interleaves their curves, and a mean across instances with
/// different utility scales would be meaningless.
fn area_under_curve(curve: &[(u64, f64)]) -> Option<f64> {
    let (first, last) = (curve.first()?, curve.last()?);
    let span = (last.0 - first.0) as f64;
    let pairs = || curve.iter().zip(curve.iter().skip(1));
    if span <= 0.0 || pairs().any(|(a, b)| b.0 < a.0) {
        return None;
    }
    let mut area = 0.0;
    for (&(t0, u0), &(t1, u1)) in pairs() {
        area += 0.5 * (u0 + u1) * (t1 - t0) as f64;
    }
    Some(area / span)
}
