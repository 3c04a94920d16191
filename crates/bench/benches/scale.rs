//! Scale-regime benchmark (ROADMAP open item 2): times the 10⁴–10⁵
//! committee pipeline end to end and writes a machine-readable
//! `BENCH_scale.json` (workspace root by default; override with
//! `MVCOM_BENCH_OUT`). Set `MVCOM_BENCH_QUICK=1` for a reduced smoke run.
//!
//! Four sections:
//!
//! 1. `streaming_build` — chunked trace→instance construction at each
//!    sweep size (the `ShardStream` path that avoids O(|I|)
//!    intermediates).
//! 2. `dp` — the sparse/quantized DP against the dense table at a size
//!    the dense table can still afford (differential: identical
//!    utilities), plus sparse-only timings at the sweep sizes where the
//!    dense O(|I|·buckets) table is off the menu.
//! 3. `sweep` — the fig11-shaped workload (SE with a strided chain
//!    budget, sparse DP, greedy) per size. **Gated**: every point must
//!    finish within its per-size wall-clock budget (chosen with ≥ 2×
//!    headroom over the numbers measured on the 1-core CI host).
//! 4. `epoch_threads` — `ElasticoSim::run_epoch` at `--threads 1` vs 4
//!    on a many-committee epoch, with a differential check that the two
//!    reports are identical. **Gated** ≥ 2× when the host exposes ≥ 4
//!    cores; annotated (not failed) on smaller hosts, where the fan-out
//!    is core-bound by construction.

// Test/example code: unwrap is fine here (the workspace-level
// `clippy::unwrap_used` warning targets library code; see mvcom-lint P1).
#![allow(clippy::unwrap_used)]
use std::path::PathBuf;
use std::time::Instant;

use mvcom_baselines::dp::DpConfig;
use mvcom_baselines::{DpSolver, GreedySolver, Solver, SparseDpSolver};
use mvcom_bench::harness::streamed_instance;
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};

/// Per-size wall-clock budgets for the sweep (release build, full mode):
/// every point is gated, with the budgets set at ≥ 2× the totals
/// measured on the 1-core CI host (≈2.2s / 3.6s / 5.2s at 10k/50k/100k).
/// An `O(|I|)`-per-proposal sampler took 7.1s / 32.4s / 64.9s here, so a
/// budget pass is itself evidence the `O(log |I|)` rank-select is intact.
fn wall_clock_budget_secs(committees: usize) -> f64 {
    match committees {
        0..=10_000 => 5.0,
        10_001..=20_000 => 10.0,
        20_001..=50_000 => 20.0,
        _ => 40.0,
    }
}

/// Sparse-DP bucket budget at scale (matches `experiments::fig_scale`).
const SCALE_BUCKETS: usize = 4_096;

#[derive(serde::Serialize)]
struct BuildTiming {
    committees: usize,
    secs: f64,
    committees_per_sec: f64,
}

#[derive(serde::Serialize)]
struct DpComparison {
    /// Size of the differential point (dense table still affordable).
    committees: usize,
    buckets: usize,
    dense_secs: f64,
    sparse_secs: f64,
    speedup: f64,
    utilities_agree: bool,
}

#[derive(serde::Serialize)]
struct SparseDpTiming {
    committees: usize,
    buckets: usize,
    secs: f64,
}

#[derive(serde::Serialize)]
struct SweepPoint {
    committees: usize,
    se_iterations: u64,
    build_secs: f64,
    se_secs: f64,
    sparse_dp_secs: f64,
    greedy_secs: f64,
    total_secs: f64,
    /// Per-size wall-clock ceiling this point must finish within.
    budget_secs: f64,
    /// Every sweep point is wall-clock gated against its budget.
    gated: bool,
}

#[derive(serde::Serialize)]
struct EpochThreads {
    committees: usize,
    threads: usize,
    serial_secs: f64,
    threaded_secs: f64,
    thread_speedup: f64,
    cores_available: usize,
    reports_identical: bool,
    /// Spells out how `thread_speedup` relates to the detected core
    /// count, so a ~1× reading on a 1-core CI host is self-explanatory.
    thread_speedup_note: String,
}

#[derive(serde::Serialize)]
struct Acceptance {
    criterion: String,
    sweep_within_budgets: bool,
    thread_speedup: f64,
    thread_speedup_gated: bool,
    pass: bool,
}

#[derive(serde::Serialize)]
struct Report {
    bench: String,
    mode: String,
    streaming_build: Vec<BuildTiming>,
    dp: DpComparison,
    sparse_dp: Vec<SparseDpTiming>,
    sweep: Vec<SweepPoint>,
    epoch_threads: EpochThreads,
    acceptance: Acceptance,
}

/// Best-of-3 wall clock of `f` (no warm-up discard: every section here
/// runs seconds, not nanoseconds, so the first pass is already warm).
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.unwrap())
}

/// One wall-clock sample of `f` — for the heavyweight sweep points where
/// best-of-3 would triple a minutes-long run.
fn timed_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

fn measure_builds(sizes: &[usize]) -> Vec<BuildTiming> {
    sizes
        .iter()
        .map(|&n| {
            let (secs, instance) =
                timed(|| streamed_instance(n, 1_000 * n as u64, 1.5, 31_000).unwrap());
            assert_eq!(instance.len(), n);
            BuildTiming {
                committees: n,
                secs,
                committees_per_sec: n as f64 / secs.max(1e-9),
            }
        })
        .collect()
}

fn measure_dp_differential(n: usize) -> DpComparison {
    let instance = streamed_instance(n, 1_000 * n as u64, 1.5, 31_100).unwrap();
    let config = DpConfig::paper();
    let (dense_secs, dense) = timed(|| DpSolver::new(config).solve(&instance).unwrap());
    let (sparse_secs, sparse) = timed(|| SparseDpSolver::new(config).solve(&instance).unwrap());
    DpComparison {
        committees: n,
        buckets: config.max_buckets,
        dense_secs,
        sparse_secs,
        speedup: dense_secs / sparse_secs.max(1e-9),
        utilities_agree: (dense.best_utility - sparse.best_utility).abs() < 1e-6,
    }
}

fn measure_sparse_dp(sizes: &[usize]) -> Vec<SparseDpTiming> {
    sizes
        .iter()
        .map(|&n| {
            let instance = streamed_instance(n, 1_000 * n as u64, 1.5, 31_200).unwrap();
            let config = DpConfig {
                max_buckets: SCALE_BUCKETS,
            };
            let (secs, _) = timed(|| SparseDpSolver::new(config).solve(&instance).unwrap());
            SparseDpTiming {
                committees: n,
                buckets: SCALE_BUCKETS,
                secs,
            }
        })
        .collect()
}

/// The sweep's SE configuration at one size.
fn sweep_se_config(iters: u64) -> SeConfig {
    SeConfig {
        gamma: 10,
        max_iterations: iters,
        convergence_window: 0,
        record_every: 1,
        max_chains: 4,
        ..SeConfig::paper(31_400)
    }
}

fn measure_sweep_point(n: usize, iters: u64) -> SweepPoint {
    let (build_secs, instance) =
        timed_once(|| streamed_instance(n, 1_000 * n as u64, 1.5, 31_300).unwrap());
    let (se_secs, se) = timed_once(|| {
        SeEngine::new(&instance, sweep_se_config(iters))
            .unwrap()
            .run()
    });
    assert!(instance.is_feasible(&se.best_solution));
    let (sparse_dp_secs, _) = timed_once(|| {
        SparseDpSolver::new(DpConfig {
            max_buckets: SCALE_BUCKETS,
        })
        .solve(&instance)
        .unwrap()
    });
    let (greedy_secs, _) = timed_once(|| GreedySolver::new().solve(&instance).unwrap());
    SweepPoint {
        committees: n,
        se_iterations: iters,
        build_secs,
        se_secs,
        sparse_dp_secs,
        greedy_secs,
        total_secs: build_secs + se_secs + sparse_dp_secs + greedy_secs,
        budget_secs: wall_clock_budget_secs(n),
        gated: true,
    }
}

fn measure_epoch_threads(n_nodes: u32, threads: usize) -> EpochThreads {
    let config = ElasticoConfig::with_nodes(n_nodes, 16);
    let seed = 31_500;
    // Differential first: the parallel fan-out must reproduce the serial
    // epoch exactly (the elastico test suite asserts byte-identical event
    // streams too; the report check here keeps the bench self-contained).
    let serial_report = ElasticoSim::new(config.clone(), seed)
        .unwrap()
        .run_epoch()
        .unwrap();
    let threaded_report = ElasticoSim::new(config.clone(), seed)
        .unwrap()
        .with_threads(threads)
        .run_epoch()
        .unwrap();
    let reports_identical = serial_report == threaded_report;
    let committees = serial_report.formed.len();
    let (serial_secs, _) = timed(|| {
        ElasticoSim::new(config.clone(), seed)
            .unwrap()
            .run_epoch()
            .unwrap()
            .shards
            .len()
    });
    let (threaded_secs, _) = timed(|| {
        ElasticoSim::new(config.clone(), seed)
            .unwrap()
            .with_threads(threads)
            .run_epoch()
            .unwrap()
            .shards
            .len()
    });
    let cores_available = std::thread::available_parallelism().map_or(1, |p| p.get());
    let thread_speedup = serial_secs / threaded_secs.max(1e-9);
    let thread_speedup_note = if cores_available < 4 {
        format!(
            "{thread_speedup:.2}x from --threads {threads} on a {cores_available}-core host: \
             the fan-out is core-bound, so the >=2x gate is waived here (not a regression)"
        )
    } else {
        format!("{thread_speedup:.2}x from --threads {threads} on a {cores_available}-core host")
    };
    EpochThreads {
        committees,
        threads,
        serial_secs,
        threaded_secs,
        thread_speedup,
        cores_available,
        reports_identical,
        thread_speedup_note,
    }
}

fn main() {
    let quick = std::env::var("MVCOM_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (sizes, iters): (Vec<usize>, u64) = if quick {
        (vec![5_000, 20_000], 300)
    } else {
        (vec![10_000, 50_000, 100_000], 3_000)
    };

    let streaming_build = measure_builds(&sizes);
    for b in &streaming_build {
        eprintln!(
            "  scale/build |I|={}: {:.3}s ({:.0} committees/s)",
            b.committees, b.secs, b.committees_per_sec
        );
    }

    let dp = measure_dp_differential(2_000);
    assert!(
        dp.utilities_agree,
        "sparse and dense DP disagree at |I|={}",
        dp.committees
    );
    eprintln!(
        "  scale/dp |I|={} ({} buckets): dense {:.3}s, sparse {:.3}s ({:.1}x), agree={}",
        dp.committees, dp.buckets, dp.dense_secs, dp.sparse_secs, dp.speedup, dp.utilities_agree
    );
    let sparse_dp = measure_sparse_dp(&sizes);
    for t in &sparse_dp {
        eprintln!(
            "  scale/sparse_dp |I|={} ({} buckets): {:.3}s",
            t.committees, t.buckets, t.secs
        );
    }

    let sweep: Vec<SweepPoint> = sizes
        .iter()
        .map(|&n| {
            let point = measure_sweep_point(n, iters);
            eprintln!(
                "  scale/sweep |I|={}: build {:.2}s + SE {:.2}s ({} iters) + SDP {:.2}s + \
                 greedy {:.2}s = {:.2}s [budget {:.0}s]",
                point.committees,
                point.build_secs,
                point.se_secs,
                point.se_iterations,
                point.sparse_dp_secs,
                point.greedy_secs,
                point.total_secs,
                point.budget_secs,
            );
            point
        })
        .collect();
    let sweep_within_budgets = sweep.iter().all(|p| p.total_secs <= p.budget_secs);

    let epoch_threads = measure_epoch_threads(if quick { 512 } else { 1_024 }, 4);
    assert!(
        epoch_threads.reports_identical,
        "run_epoch diverged between --threads 1 and --threads {}",
        epoch_threads.threads
    );
    eprintln!(
        "  scale/epoch_threads {} committees: serial {:.3}s, --threads {} {:.3}s ({})",
        epoch_threads.committees,
        epoch_threads.serial_secs,
        epoch_threads.threads,
        epoch_threads.threaded_secs,
        epoch_threads.thread_speedup_note
    );

    let thread_speedup_gated = epoch_threads.cores_available >= 4;
    let threads_ok = !thread_speedup_gated || epoch_threads.thread_speedup >= 2.0;
    let report = Report {
        bench: "scale".into(),
        mode: if quick { "quick" } else { "full" }.into(),
        streaming_build,
        dp,
        sparse_dp,
        sweep,
        acceptance: Acceptance {
            criterion: format!(
                "every fig11-shaped sweep point (streamed build + SE with a 4-chain \
                 budget x {iters} iters + sparse DP + greedy) completes within its \
                 per-size wall-clock budget; run_epoch --threads 4 reproduces the serial \
                 epoch exactly and reaches >=2x when >=4 cores are detected \
                 (annotated, not gated, on smaller hosts)"
            ),
            sweep_within_budgets,
            thread_speedup: epoch_threads.thread_speedup,
            thread_speedup_gated,
            pass: sweep_within_budgets && threads_ok,
        },
        epoch_threads,
    };

    let out = std::env::var("MVCOM_BENCH_OUT").map_or_else(
        |_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_scale.json")
        },
        PathBuf::from,
    );
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, text).expect("writing bench report");
    eprintln!(
        "  scale report: {} (acceptance {}: budgets {}, threads {:.2}x{})",
        out.display(),
        if report.acceptance.pass {
            "PASS"
        } else {
            "FAIL"
        },
        if sweep_within_budgets { "met" } else { "BLOWN" },
        report.acceptance.thread_speedup,
        if thread_speedup_gated {
            " [gated]"
        } else {
            " [ungated]"
        },
    );
    assert!(
        report.acceptance.pass,
        "acceptance: budgets met: {sweep_within_budgets}, thread speedup {:.2}x \
         (gated: {thread_speedup_gated})",
        report.acceptance.thread_speedup
    );
}
