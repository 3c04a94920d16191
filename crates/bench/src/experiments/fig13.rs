//! Fig. 13 — the *distribution* of converged utilities over repeated runs,
//! for α ∈ {1.5, 5, 10} (|I_j| = 50, Ĉ = 50K, Γ = 25).

use mvcom_simnet::stats::Ecdf;
use mvcom_types::Result;

use crate::experiments::fig12::ALPHAS;
use crate::experiments::Figure;
use crate::figures::{Bars, Marks, Plot};
use crate::harness::{paper_instance, run_all_algorithms, AlgoRun, AlgoRuns, FigureReport, Scale};

const CSV: &str = "fig13.csv";

/// Fig. 13.
pub const FIGURE: Figure = Figure {
    name: "fig13",
    shows:
        "Fig. 13(a–c): distribution of converged utilities over 16 repeated runs, α ∈ {1.5,5,10}",
    params: "|I|=50, Ĉ=50K, Γ=25",
    files: &[CSV],
    plots: &[Plot {
        svg: "fig13_alpha_{alpha}.svg",
        title: "Fig. 13 — converged-utility distribution (α = {alpha})",
        x_label: "algorithm",
        y_label: "converged utility (median, IQR)",
        marks: Marks::Bars(Bars {
            csv: CSV,
            label: "{algorithm}",
            value: "median",
            whisker: Some(("q25", "q75")),
        }),
    }],
    run,
};

/// Runs the repeated-runs distribution experiment.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let n = scale.committees(50).max(20);
    let capacity = 1_000 * n as u64;
    let iters = scale.iters(2_000);
    let reps = scale.reps(16);
    let instances = ALPHAS
        .iter()
        .enumerate()
        .map(|(ai, &alpha)| paper_instance(n, capacity, alpha, 13_000 + ai as u64))
        .collect::<Result<Vec<_>>>()?;
    // One point per (α, repetition), α-major; its seed is its position.
    let points: Vec<(usize, usize)> = (0..ALPHAS.len())
        .flat_map(|ai| (0..reps).map(move |rep| (ai, rep)))
        .collect();
    let runs: Vec<AlgoRuns> = mvcom_simnet::ordered_map(threads, points, |(ai, rep)| {
        let seed = 13_100 + (ai * 1_000 + rep) as u64;
        run_all_algorithms(&instances[ai], iters, 25, seed)
    })
    .into_iter()
    .collect::<Result<_>>()?;

    let mut report = FigureReport::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut medians: Vec<(f64, f64)> = Vec::new(); // (SE median, best baseline median)
    for (alpha, runs) in ALPHAS.iter().zip(runs.chunks(reps)) {
        let converged = |pick: fn(&AlgoRuns) -> &AlgoRun| {
            Ecdf::from_samples(runs.iter().map(|r| pick(r).utility).collect())
        };
        let (dp, sa, se, woa) = (
            converged(|r| &r.dp),
            converged(|r| &r.sa),
            converged(|r| &r.se),
            converged(|r| &r.woa),
        );
        // Alphabetical: the row order of the committed CSV.
        for (name, cdf) in [("DP", &dp), ("SA", &sa), ("SE", &se), ("WOA", &woa)] {
            rows.push(vec![
                format!("{alpha}"),
                name.to_string(),
                format!("{:.2}", cdf.quantile(0.0)),
                format!("{:.2}", cdf.quantile(0.25)),
                format!("{:.2}", cdf.quantile(0.5)),
                format!("{:.2}", cdf.quantile(0.75)),
                format!("{:.2}", cdf.quantile(1.0)),
            ]);
            report.note(format!(
                "α={alpha} {name}: median {:.1} (IQR {:.1}–{:.1}) over {} runs",
                cdf.quantile(0.5),
                cdf.quantile(0.25),
                cdf.quantile(0.75),
                cdf.len()
            ));
        }
        let best_baseline = sa
            .quantile(0.5)
            .max(dp.quantile(0.5))
            .max(woa.quantile(0.5));
        medians.push((se.quantile(0.5), best_baseline));
    }
    report.add_csv(
        CSV,
        &["alpha", "algorithm", "min", "q25", "median", "q75", "max"],
        rows,
    );
    // Shape checks (paper): the SE distribution dominates the baselines'
    // and shifts upward with α.
    report.check(
        "SE median at or above the best baseline median for every α",
        medians.iter().all(|&(se, base)| se >= base - 1e-9),
    );
    report.check(
        "SE median grows with α",
        medians.is_sorted_by(|a, b| a.0 < b.0),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn quick_run_honours_its_declaration() {
        honours_its_declaration(&FIGURE);
    }
}
