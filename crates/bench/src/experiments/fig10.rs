//! Fig. 10 — the Valuable Degree `Σ x_i·s_i/Π_i` of each algorithm's
//! schedule (|I_j| = 500, Ĉ = 500K, α = 1.5, Γ = 25).

use mvcom_types::Result;

use crate::experiments::Figure;
use crate::figures::{Bars, Marks, Plot};
use crate::harness::{paper_instance, run_all_algorithms, AlgoRun, FigureReport, Scale};

const CSV: &str = "fig10.csv";

/// Fig. 10.
pub const FIGURE: Figure = Figure {
    name: "fig10",
    shows: "Fig. 10: Valuable Degree Σ x_i·s_i/Π_i of each algorithm's schedule",
    params: "|I|=500, Ĉ=500K, α=1.5, Γ=25",
    files: &[CSV],
    plots: &[Plot {
        svg: "fig10.svg",
        title: "Fig. 10 — Valuable Degree per algorithm",
        x_label: "algorithm",
        y_label: "valuable degree Σ s_i/Π_i",
        marks: Marks::Bars(Bars {
            csv: CSV,
            label: "{algorithm}",
            value: "valuable_degree",
            whisker: None,
        }),
    }],
    run,
};

/// Runs the Valuable-Degree comparison.
fn run(scale: Scale, _threads: usize) -> Result<FigureReport> {
    let n = scale.committees(500);
    let capacity = 1_000 * n as u64;
    let iters = scale.iters(3_000);
    let instance = paper_instance(n, capacity, 1.5, 10_000)?;
    let runs = run_all_algorithms(&instance, iters, 25, 10_001)?;

    let mut report = FigureReport::default();
    let mut rows = Vec::new();
    for r in runs.iter() {
        let vd = instance.valuable_degree(&r.solution);
        rows.push(vec![
            r.name.to_string(),
            format!("{vd:.3}"),
            format!("{:.1}", r.utility),
            r.solution.selected_count().to_string(),
        ]);
        report.note(format!(
            "{}: valuable degree {vd:.2}, utility {:.1}, {} admitted",
            r.name,
            r.utility,
            r.solution.selected_count()
        ));
    }
    report.add_csv(
        CSV,
        &["algorithm", "valuable_degree", "utility", "admitted"],
        rows,
    );

    let vd = |r: &AlgoRun| instance.valuable_degree(&r.solution);
    // Shape checks. The paper reports SE strictly highest with DP and WOA
    // "pretty low"; our DP is a near-exact knapsack (stronger than the
    // paper's — see EXPERIMENTS.md) and ties SE to within a fraction of a
    // percent, so the robust shape is: SE at the top within a 1% tie
    // tolerance, and strictly above the metaheuristic WOA.
    report.check("SE within 1% of the highest valuable degree", {
        let best = runs.iter().map(vd).fold(f64::MIN, f64::max);
        vd(&runs.se) >= 0.99 * best
    });
    report.check(
        "SE beats WOA on valuable degree",
        vd(&runs.se) > vd(&runs.woa),
    );
    report.check(
        "SA lands within 10% of SE (close runner-up)",
        vd(&runs.sa) >= 0.9 * vd(&runs.se),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn quick_run_honours_its_declaration_and_reports_all_algorithms() {
        let report = honours_its_declaration(&FIGURE);
        let csv = &report.files[0].1;
        for algo in ["SE", "SA", "DP", "WOA"] {
            assert!(csv.contains(algo), "{algo} missing from CSV");
        }
    }
}
