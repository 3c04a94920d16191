//! Benchmarks of the SE engine: per-iteration cost and full convergence
//! runs, including the Γ ablation and the MaxSelected-deadline ablation
//! called out in DESIGN.md.
//!
//! Besides the criterion-style console output, this bench writes a machine-
//! readable `BENCH_se_convergence.json` report (workspace root by default;
//! override with `MVCOM_BENCH_OUT`) so CI can archive a perf trail. Set
//! `MVCOM_BENCH_QUICK=1` for a reduced-size smoke run.

// Test/example code: unwrap is fine here (the workspace-level
// `clippy::unwrap_used` warning targets library code; see mvcom-lint P1).
#![allow(clippy::unwrap_used)]
use std::path::PathBuf;
use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};

use mvcom_bench::harness::paper_instance;
use mvcom_core::problem::{DdlPolicy, InstanceBuilder};
use mvcom_core::se::{SeConfig, SeEngine};

fn bench_se(c: &mut Criterion) {
    let mut group = c.benchmark_group("se");
    group.sample_size(10);

    // Per-iteration cost at growing |I|.
    for &n in &[50usize, 200, 500] {
        let instance = paper_instance(n, 1_000 * n as u64, 1.5, 7).unwrap();
        group.bench_with_input(BenchmarkId::new("100_iterations", n), &n, |b, _| {
            let config = SeConfig {
                gamma: 10,
                max_iterations: 100,
                convergence_window: 0,
                record_every: 100,
                ..SeConfig::paper(1)
            };
            b.iter(|| {
                let engine = SeEngine::new(&instance, config).unwrap();
                black_box(engine.run().best_utility)
            });
        });
    }

    // Γ ablation: same iteration budget, different replica counts.
    let instance = paper_instance(100, 100_000, 1.5, 8).unwrap();
    for &gamma in &[1usize, 10, 25] {
        group.bench_with_input(BenchmarkId::new("gamma", gamma), &gamma, |b, &gamma| {
            let config = SeConfig {
                gamma,
                max_iterations: 200,
                convergence_window: 0,
                record_every: 200,
                ..SeConfig::paper(2)
            };
            b.iter(|| {
                let engine = SeEngine::new(&instance, config).unwrap();
                black_box(engine.run().best_utility)
            });
        });
    }

    // DDL-policy ablation: the separable MaxArrival objective vs the
    // non-separable MaxSelected extension (O(1) vs O(n) swap deltas).
    for policy in [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected] {
        let base = paper_instance(50, 50_000, 1.5, 9).unwrap();
        let instance = InstanceBuilder::new()
            .alpha(1.5)
            .capacity(50_000)
            .n_min(25)
            .ddl_policy(policy)
            .shards(base.shards().to_vec())
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("ddl_policy", format!("{policy:?}")),
            &policy,
            |b, _| {
                let config = SeConfig {
                    gamma: 4,
                    max_iterations: 100,
                    convergence_window: 0,
                    record_every: 100,
                    ..SeConfig::paper(3)
                };
                b.iter(|| {
                    let engine = SeEngine::new(&instance, config).unwrap();
                    black_box(engine.run().best_utility)
                });
            },
        );
    }
    group.finish();
}

#[derive(serde::Serialize)]
struct IterationCost {
    committees: usize,
    se_iterations: u64,
    secs: f64,
    best_utility: f64,
}

#[derive(serde::Serialize)]
struct GammaPoint {
    gamma: usize,
    secs: f64,
    best_utility: f64,
}

#[derive(serde::Serialize)]
struct DdlPoint {
    policy: String,
    secs: f64,
    best_utility: f64,
}

#[derive(serde::Serialize)]
struct Acceptance {
    criterion: String,
    utilities_finite: bool,
    pass: bool,
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    iteration_cost: Vec<IterationCost>,
    gamma_ablation: Vec<GammaPoint>,
    ddl_ablation: Vec<DdlPoint>,
    acceptance: Acceptance,
}

/// Wall clock of one `f()` call (each section here runs a full seeded SE
/// convergence pass — seconds, not nanoseconds, so best-of-1 suffices).
fn timed_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn report_config(iters: u64, gamma: usize, seed: u64) -> SeConfig {
    SeConfig {
        gamma,
        max_iterations: iters,
        convergence_window: 0,
        record_every: iters,
        ..SeConfig::paper(seed)
    }
}

fn write_report() {
    let quick = std::env::var("MVCOM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (sizes, iters): (Vec<usize>, u64) = if quick {
        (vec![50, 200], 50)
    } else {
        (vec![50, 200, 500], 100)
    };

    let iteration_cost: Vec<IterationCost> = sizes
        .iter()
        .map(|&n| {
            let instance = paper_instance(n, 1_000 * n as u64, 1.5, 7).unwrap();
            let (secs, best_utility) = timed_once(|| {
                SeEngine::new(&instance, report_config(iters, 10, 1))
                    .unwrap()
                    .run()
                    .best_utility
            });
            eprintln!(
                "  se_convergence/report |I|={n}: {secs:.3}s for {iters} iters, U={best_utility:.1}"
            );
            IterationCost {
                committees: n,
                se_iterations: iters,
                secs,
                best_utility,
            }
        })
        .collect();

    let gamma_instance = paper_instance(100, 100_000, 1.5, 8).unwrap();
    let gamma_ablation: Vec<GammaPoint> = [1usize, 10, 25]
        .iter()
        .map(|&gamma| {
            let (secs, best_utility) = timed_once(|| {
                SeEngine::new(&gamma_instance, report_config(2 * iters, gamma, 2))
                    .unwrap()
                    .run()
                    .best_utility
            });
            eprintln!("  se_convergence/gamma {gamma}: {secs:.3}s, U={best_utility:.1}");
            GammaPoint {
                gamma,
                secs,
                best_utility,
            }
        })
        .collect();

    let ddl_ablation: Vec<DdlPoint> = [DdlPolicy::MaxArrival, DdlPolicy::MaxSelected]
        .iter()
        .map(|&policy| {
            let base = paper_instance(50, 50_000, 1.5, 9).unwrap();
            let instance = InstanceBuilder::new()
                .alpha(1.5)
                .capacity(50_000)
                .n_min(25)
                .ddl_policy(policy)
                .shards(base.shards().to_vec())
                .build()
                .unwrap();
            let (secs, best_utility) = timed_once(|| {
                SeEngine::new(&instance, report_config(iters, 4, 3))
                    .unwrap()
                    .run()
                    .best_utility
            });
            eprintln!("  se_convergence/ddl {policy:?}: {secs:.3}s, U={best_utility:.1}");
            DdlPoint {
                policy: format!("{policy:?}"),
                secs,
                best_utility,
            }
        })
        .collect();

    let utilities_finite = iteration_cost
        .iter()
        .map(|p| p.best_utility)
        .chain(gamma_ablation.iter().map(|p| p.best_utility))
        .chain(ddl_ablation.iter().map(|p| p.best_utility))
        .all(f64::is_finite);

    let report = Report {
        bench: "se_convergence".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        iteration_cost,
        gamma_ablation,
        ddl_ablation,
        acceptance: Acceptance {
            criterion: "every recorded utility is finite".into(),
            utilities_finite,
            pass: utilities_finite,
        },
    };

    let out = std::env::var("MVCOM_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_se_convergence.json")
        },
        PathBuf::from,
    );
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, text).expect("writing bench report");
    eprintln!(
        "  se_convergence report: {} (acceptance {}: utilities finite: {utilities_finite})",
        out.display(),
        if utilities_finite { "PASS" } else { "FAIL" },
    );
    assert!(
        utilities_finite,
        "acceptance: a recorded utility is not finite"
    );
}

criterion_group!(benches, bench_se);

fn main() {
    benches();
    write_report();
}
