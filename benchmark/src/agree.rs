//! `agree A.json B.json`: do two result sets of the benchmark agree?
//!
//! A result set is `{"runs":[…]}` as `run.sh all` writes it. Runs are
//! grouped by workload; every end-to-end metric is compared median to
//! median against its bound in `BENCHMARK.json`, and every count and
//! deterministic value must be equal run for run (matched by seed).

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartile_spread};

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// One run of a result set: its metric values by name.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub values: BTreeMap<String, f64>,
    /// End-to-end timings as the clock measured them (the values are in
    /// nominal time).
    pub measured: BTreeMap<String, f64>,
}

/// Parses a result set.
pub fn parse_set(text: &str) -> Result<Vec<Run>, String> {
    let root = serde_json::from_str_value(text).map_err(|e| format!("not JSON: {e}"))?;
    let Some(Value::Array(runs)) = field(&root, "runs") else {
        return Err("no `runs` array".to_string());
    };
    runs.iter()
        .map(|run| {
            let workload = match field(run, "workload") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("run without a workload".to_string()),
            };
            let seed = field(run, "seed")
                .and_then(number)
                .ok_or("run without a seed")? as u64;
            let trace = field(run, "trace")
                .and_then(number)
                .ok_or("run without trace")?
                != 0.0;
            let Some(Value::Object(metrics)) = field(run, "metrics") else {
                return Err("run without metrics".to_string());
            };
            let read = |key: &str| -> BTreeMap<String, f64> {
                metrics
                    .iter()
                    .filter_map(|(name, m)| Some((name.clone(), field(m, key).and_then(number)?)))
                    .collect()
            };
            Ok(Run {
                workload,
                seed,
                trace,
                values: read("value"),
                measured: read("measured"),
            })
        })
        .collect()
}

/// The bounds as committed in `BENCHMARK.json`.
pub fn parse_bounds(manifest: &str) -> Result<BTreeMap<String, f64>, String> {
    let root = serde_json::from_str_value(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(metrics)) = field(&root, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let name = match field(m, "name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end entry without a name".to_string()),
            };
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or("end_to_end entry without a bound")?;
            Ok((name, bound))
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// Compares two sets of values of one metric. `Within`: neither median is
/// worse than the other by more than `bound`. Otherwise `Unresolved` when
/// either set's own quartile spread is wider than the bound (the runs
/// cannot tell), else `Outside`.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => ((mb - ma) / ma).max((ma - mb) / mb),
        Better::Higher => ((ma - mb) / ma).max((mb - ma) / mb),
    };
    let verdict = if worse_by <= bound {
        Verdict::Within
    } else if [a, b]
        .iter()
        .any(|v| quartile_spread(v).is_some_and(|s| s > bound))
    {
        Verdict::Unresolved
    } else {
        Verdict::Outside
    };
    (verdict, worse_by)
}

fn pct(x: Option<f64>) -> String {
    x.map_or_else(|| "   n/a".to_string(), |v| format!("{:5.1}%", v * 100.0))
}

/// Renders the comparison; the flag is true when every pair is within
/// bound and every exact value repeats.
pub fn agree(a: &[Run], b: &[Run], bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let workloads: BTreeSet<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    out.push_str(&format!(
        "{:<16} {:<18} {:>13} {:>13} {:>7} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "diff", "iqr A", "iqr B", "bound"
    ));
    for workload in &workloads {
        let values = |set: &[Run], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == *workload && !r.trace)
                .filter_map(|r| r.values.get(name).copied())
                .collect()
        };
        for m in END_TO_END {
            let (va, vb) = (values(a, m.name), values(b, m.name));
            if va.is_empty() || vb.is_empty() {
                out.push_str(&format!(
                    "{workload:<16} {:<18} missing from one set\n",
                    m.name
                ));
                ok = false;
                continue;
            }
            let bound = bounds.get(m.name).copied().unwrap_or(m.bound);
            let (verdict, worse_by) = compare(&va, &vb, m.better, bound);
            ok &= verdict == Verdict::Within;
            out.push_str(&format!(
                "{workload:<16} {:<18} {:>13.4} {:>13.4} {} {} {} {:>5.1}%  {}\n",
                m.name,
                median(&va),
                median(&vb),
                pct(Some(worse_by)),
                pct(quartile_spread(&va)),
                pct(quartile_spread(&vb)),
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "OUTSIDE",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            ));
        }
    }
    // Exact values: counts and deterministic results, run for run.
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|m| m.exact)
        .map(|m| m.name)
        .chain(["quality_pct"])
        .collect();
    let (mut compared, mut differing) = (0u64, Vec::new());
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed && rb.trace == ra.trace)
        {
            for name in &exact {
                if let (Some(x), Some(y)) = (ra.values.get(*name), rb.values.get(*name)) {
                    compared += 1;
                    if x != y {
                        differing.push(format!(
                            "{} seed {} {name}: {x} vs {y}",
                            ra.workload, ra.seed
                        ));
                    }
                }
            }
        }
    }
    out.push_str(&format!(
        "exact values: {compared} compared across runs matched by workload and seed, {} differ\n",
        differing.len()
    ));
    for line in &differing {
        out.push_str(&format!("  DIFFERS: {line}\n"));
    }
    ok &= differing.is_empty();
    (out, ok)
}

/// Renders each workload's quartile spread per end-to-end metric against
/// a third of its bound (the steadiness target) and the bound itself, with
/// the spread of the same timings as measured beside it.
pub fn spread(set: &[Run], bounds: &BTreeMap<String, f64>) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>4} {:>13} {:>7} {:>6} {:>12}  steadiness\n",
        "workload", "metric", "runs", "median", "iqr", "bound", "iqr measured"
    );
    let workloads: BTreeSet<&str> = set.iter().map(|r| r.workload.as_str()).collect();
    for workload in &workloads {
        let runs: Vec<&Run> = set
            .iter()
            .filter(|r| r.workload == *workload && !r.trace)
            .collect();
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.values.get(m.name).copied())
                .collect();
            let measured: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.measured.get(m.name).copied())
                .collect();
            let bound = bounds.get(m.name).copied().unwrap_or(m.bound);
            let iqr = quartile_spread(&values);
            let verdict = match iqr {
                None => "too few runs",
                Some(s) if s <= bound / 3.0 => "under a third of the bound",
                Some(s) if s <= bound => "within the bound",
                Some(_) => "WIDER THAN THE BOUND",
            };
            out.push_str(&format!(
                "{workload:<16} {:<18} {:>4} {:>13.4} {} {:>5.1}% {:>12}  {verdict}\n",
                m.name,
                values.len(),
                median(&values),
                pct(iqr),
                bound * 100.0,
                pct(quartile_spread(&measured)),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_is_symmetric_and_knows_when_it_cannot_tell() {
        let steady_a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let steady_b = [10.4, 10.5, 10.3, 10.45, 10.4];
        let (v, d) = compare(&steady_a, &steady_b, Better::Lower, 0.10);
        assert_eq!(v, Verdict::Within);
        assert!((d - 0.04).abs() < 1e-9);
        // The same pair, either way round, at a 2 % bound: outside.
        assert_eq!(
            compare(&steady_a, &steady_b, Better::Lower, 0.02).0,
            Verdict::Outside
        );
        assert_eq!(
            compare(&steady_b, &steady_a, Better::Higher, 0.02).0,
            Verdict::Outside
        );
        // A set whose own spread exceeds the bound cannot resolve it.
        let noisy = [8.0, 14.0, 9.0, 13.0, 11.6];
        assert_eq!(
            compare(&steady_a, &noisy, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn parses_sets_and_flags_inexact_counts() {
        let set = |iters: u64| {
            format!(
                "{{\"runs\":[{{\"workload\":\"w\",\"seed\":3,\"trace\":1,\"metrics\":\
                 {{\"se.iterations\":{{\"value\":{iters},\"unit\":\"count\",\"samples\":1}}}}}}]}}"
            )
        };
        let a = parse_set(&set(600)).unwrap();
        assert_eq!(a[0].workload, "w");
        assert!(a[0].trace);
        assert_eq!(a[0].values["se.iterations"], 600.0);
        let bounds = BTreeMap::new();
        assert!(agree(&a, &parse_set(&set(600)).unwrap(), &bounds)
            .0
            .contains("0 differ"));
        let (text, ok) = agree(&a, &parse_set(&set(601)).unwrap(), &bounds);
        assert!(!ok);
        assert!(text.contains("DIFFERS: w seed 3 se.iterations: 600 vs 601"));
        let manifest = crate::metrics::manifest();
        let parsed = parse_bounds(&manifest).unwrap();
        assert_eq!(parsed.len(), END_TO_END.len());
    }
}
