//! Fig. 11 — convergence of SE / SA / DP / WOA while varying
//! |I_j| ∈ {500, 800, 1000} (Ĉ = 1000·|I_j|, α = 1.5, Γ = 10).

use mvcom_types::Result;

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{
    paper_instance, run_all_algorithms, runs_as_events, AlgoRuns, FigureReport, Scale,
};

const CSV: &str = "fig11.csv";
const EVENTS: &str = "fig11.events.jsonl";

/// Fig. 11.
pub const FIGURE: Figure = Figure {
    name: "fig11",
    shows: "Fig. 11(a–c): convergence of SE/SA/DP/WOA varying |I| ∈ {500,800,1000}",
    params: "Ĉ=1000·|I|, α=1.5, Γ=10",
    files: &[EVENTS, CSV],
    plots: &[Plot {
        svg: "fig11_committees_{committees}.svg",
        title: "Fig. 11 — convergence vs |I| (committees = {committees})",
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

/// Runs the |I_j| sweep.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let sizes: [usize; 3] = match scale {
        Scale::Full => [500, 800, 1000],
        Scale::Quick => [50, 80, 100],
    };
    let iters = scale.iters(3_000);
    // One point per |I|; its seeds are its sweep index.
    let points: Vec<(usize, AlgoRuns)> = mvcom_simnet::ordered_map(
        threads,
        sizes.into_iter().enumerate().collect(),
        |(i, n)| {
            let instance = paper_instance(n, 1_000 * n as u64, 1.5, 11_000 + i as u64)?;
            Ok((
                n,
                run_all_algorithms(&instance, iters, 10, 11_100 + i as u64)?,
            ))
        },
    )
    .into_iter()
    .collect::<Result<_>>()?;

    let mut report = FigureReport::default();
    // Obs event file for the largest sweep point (see OBSERVABILITY.md;
    // feed it to `obs_report` for the mixing summary).
    if let Some((_, runs)) = points.last() {
        report
            .files
            .push((EVENTS.to_string(), runs_as_events(runs.iter(), 150)));
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (n, runs) in &points {
        rows.extend(runs.iter().flat_map(|r| r.convergence_rows(n)));
        report.note(format!(
            "|I|={n}: SE {:.1}, SA {:.1}, DP {:.1}, WOA {:.1}",
            runs.se.utility, runs.sa.utility, runs.dp.utility, runs.woa.utility
        ));
    }
    report.add_csv(
        CSV,
        &["committees", "algorithm", "iteration", "utility"],
        rows,
    );
    // Shape checks. The paper reports SE 20–30% above all baselines; our
    // DP is a near-exact knapsack on the separable objective (stronger
    // than the paper's — see EXPERIMENTS.md), so the robust shape is:
    // SE dominates its iterative peers (SA, WOA) at every size, and lands
    // within a few percent of the near-exact DP.
    report.check(
        "SE converges at or above SA and WOA at every |I|",
        points
            .iter()
            .all(|(_, r)| r.se.utility >= r.sa.utility.max(r.woa.utility) - 1e-9),
    );
    // Gap to DP is normalized by the utility span SE actually climbs
    // (start → DP), not by |DP| alone: the raw DP utility can sit near
    // zero while the climb spans tens of thousands of utility points,
    // which would make a |DP|-relative tolerance arbitrarily strict.
    // Full-scale runs at current HEAD capture ~95.4–95.6% of the climb
    // (EXPERIMENTS.md records the exact figures), so the floor is 93%.
    report.check(
        "SE captures at least 93% of the DP-achievable climb at every |I|",
        points.iter().all(|(_, r)| {
            let span = (r.dp.utility - r.se.start_utility()).abs().max(1.0);
            r.se.utility >= r.dp.utility - 0.07 * span
        }),
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
