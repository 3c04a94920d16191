//! Fig. 12 — convergence while varying the throughput weight
//! α ∈ {1.5, 5, 10} (|I_j| = 50, Ĉ = 50K, Γ = 25).

use mvcom_types::Result;

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{paper_instance, run_all_algorithms, AlgoRuns, FigureReport, Scale};

/// The α values the paper sweeps.
pub const ALPHAS: [f64; 3] = [1.5, 5.0, 10.0];

const CSV: &str = "fig12.csv";

/// Fig. 12.
pub const FIGURE: Figure = Figure {
    name: "fig12",
    shows: "Fig. 12(a–c): convergence of SE/SA/DP/WOA varying α ∈ {1.5,5,10}",
    params: "|I|=50, Ĉ=50K, Γ=25",
    files: &[CSV],
    plots: &[Plot {
        svg: "fig12_alpha_{alpha}.svg",
        title: "Fig. 12 — convergence vs α (alpha = {alpha})",
        x_label: "iteration",
        y_label: "system utility",
        marks: Marks::Lines(&[Lines {
            csv: CSV,
            x: "iteration",
            y: "utility",
            label: "{algorithm}",
        }]),
    }],
    run,
};

/// Runs the α sweep.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let n = scale.committees(50).max(20);
    let capacity = 1_000 * n as u64;
    let iters = scale.iters(3_000);
    // One point per α; its seed is its sweep index.
    let points: Vec<(f64, AlgoRuns)> = mvcom_simnet::ordered_map(
        threads,
        ALPHAS.into_iter().enumerate().collect(),
        |(i, alpha)| {
            let instance = paper_instance(n, capacity, alpha, 12_000)?;
            Ok((
                alpha,
                run_all_algorithms(&instance, iters, 25, 12_100 + i as u64)?,
            ))
        },
    )
    .into_iter()
    .collect::<Result<_>>()?;

    let mut report = FigureReport::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (alpha, runs) in &points {
        rows.extend(runs.iter().flat_map(|r| r.convergence_rows(alpha)));
        report.note(format!(
            "α={alpha}: SE {:.1}, SA {:.1}, DP {:.1}, WOA {:.1}",
            runs.se.utility, runs.sa.utility, runs.dp.utility, runs.woa.utility
        ));
    }
    report.add_csv(CSV, &["alpha", "algorithm", "iteration", "utility"], rows);
    // Shape checks (paper): utilities grow with α for every algorithm, and
    // SE stays at or above the baselines throughout the sweep.
    report.check(
        "SE utility grows with α",
        points.is_sorted_by(|(_, a), (_, b)| a.se.utility < b.se.utility),
    );
    report.check(
        "every algorithm improves from α=1.5 to α=10",
        matches!(points.as_slice(), [(_, first), .., (_, last)]
            if first.iter().zip(last.iter()).all(|(a, b)| b.utility > a.utility)),
    );
    report.check(
        "SE at or above every baseline for every α",
        points
            .iter()
            .all(|(_, r)| r.se.utility >= r.best_baseline() - 1e-9),
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
