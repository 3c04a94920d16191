//! Fig. 8 — SE convergence under different numbers of parallel execution
//! threads Γ (|I_j| = 500, Ĉ = 500K, α = 1.5).

use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_obs::{Obs, ObsLevel};
use mvcom_types::{Error, Result};

use crate::experiments::Figure;
use crate::figures::{Lines, Marks, Plot};
use crate::harness::{
    downsample, downsample_events_jsonl, paper_instance, FigureReport, Scale, MAX_EVENT_LINES,
};

const CSV: &str = "fig8.csv";
const EVENTS: &str = "fig8.events.jsonl";
const GAMMAS: [usize; 6] = [1, 5, 10, 15, 20, 25];

/// Fig. 8.
pub const FIGURE: Figure = Figure {
    name: "fig8",
    shows: "Fig. 8: SE convergence vs iterations for Γ ∈ {1,5,10,15,20,25}",
    params: "|I|=500, Ĉ=500K, α=1.5",
    files: &[EVENTS, CSV],
    plots: &[Plot {
        svg: "fig8.svg",
        title: "Fig. 8 — SE convergence vs parallel threads Γ",
        x_label: "iteration",
        y_label: "system utility",
        marks: Marks::Lines(&[Lines {
            csv: CSV,
            x: "iteration",
            y: "utility",
            label: "Γ = {gamma}",
        }]),
    }],
    run,
};

/// One Γ point's products, merged into the report in sweep order.
struct GammaPoint {
    gamma: usize,
    rows: Vec<Vec<f64>>,
    events: Option<String>,
    utility: f64,
}

/// Runs the Γ sweep.
fn run(scale: Scale, threads: usize) -> Result<FigureReport> {
    let n = scale.committees(500);
    let capacity = 1_000 * n as u64;
    let iters = scale.iters(3_000);
    let instance = paper_instance(n, capacity, 1.5, 8_000)?;

    // One point per Γ; every seed is a function of the point alone.
    let points = mvcom_simnet::ordered_map(threads, GAMMAS.to_vec(), |gamma| {
        let config = SeConfig {
            gamma,
            max_iterations: iters,
            convergence_window: 0,
            record_every: 1,
            ..SeConfig::paper(8_001)
        };
        // The saturation point Γ=10 also records a live obs event
        // stream (se_init/se_point/se_improve/se_converged) next to
        // the CSV — telemetry is emission-only, so the trajectory
        // is unchanged. The stream is downsampled to the artifact
        // cap before it lands in the repo.
        let mut events = None;
        let outcome = if gamma == 10 {
            let (obs, buf) = Obs::memory(ObsLevel::Events);
            let outcome = SeEngine::new(&instance, config)?
                .with_obs(obs.clone())
                .run();
            obs.flush();
            events = Some(downsample_events_jsonl(&buf.contents(), MAX_EVENT_LINES));
            outcome
        } else {
            SeEngine::new(&instance, config)?.run()
        };
        let rows = downsample(outcome.trajectory.points(), 300)
            .iter()
            .map(|p| vec![gamma as f64, p.iteration as f64, p.current_best])
            .collect();
        Ok(GammaPoint {
            gamma,
            rows,
            events,
            utility: outcome.best_utility,
        })
    })
    .into_iter()
    .collect::<Result<Vec<GammaPoint>>>()?;

    let mut report = FigureReport::default();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut utilities = Vec::new();
    for point in points {
        if let Some(events) = point.events {
            report.files.push((EVENTS.to_string(), events));
        }
        rows.extend(point.rows);
        utilities.push(point.utility);
        report.note(format!(
            "Γ={}: converged utility {:.1}",
            point.gamma, point.utility
        ));
    }
    report.add_csv(CSV, &["gamma", "iteration", "utility"], rows);

    // Shape checks (paper): larger Γ converges to a (weakly) higher
    // utility; the benefit saturates around Γ ≈ 10.
    let [u1, _, u10, _, _, u25] = utilities.as_slice() else {
        return Err(Error::simulation("the Γ sweep is GAMMAS, six points"));
    };
    let spread = u1.abs().max(1.0);
    report.check("Γ=10 converges at least as high as Γ=1", *u10 >= u1 - 1e-9);
    report.check(
        "benefit saturates: |U(25) − U(10)| ≤ |U(10) − U(1)| + 5% of scale",
        (u25 - u10).abs() <= (u10 - u1).abs() + 0.05 * spread,
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
