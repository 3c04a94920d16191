//! Ablations of the design choices DESIGN.md calls out — beyond the
//! paper's own figures.
//!
//! * `ablation-ddl` — the paper's constant MaxArrival deadline (eq. (1))
//!   vs the MaxSelected extension where admitting a straggler raises
//!   everyone's age (the §I motivating dilemma taken literally).
//! * `ablation-dynamics` — Trim (keep exploring the §V trimmed solution
//!   space) vs Reinitialize (Alg. 1's literal restart) after a committee
//!   failure: perturbation depth and recovery speed.

use mvcom_core::dynamics::{run_online, DynamicsPolicy, TimedEvent};
use mvcom_core::problem::{DdlPolicy, InstanceBuilder};
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_types::{Error, Result};

use crate::experiments::Figure;
use crate::figures::{Bars, Lines, Marks, Plot};
use crate::harness::{downsample, paper_instance, FigureReport, Scale};

const DDL_CSV: &str = "ablation_ddl.csv";
const DYNAMICS_CSV: &str = "ablation_dynamics.csv";

/// `ablation-ddl`.
pub const DDL: Figure = Figure {
    name: "ablation-ddl",
    shows: "*(extra)* MaxArrival vs MaxSelected deadline semantics",
    params: "|I|=50, Ĉ=50K, α=1.5, Γ=10",
    files: &[DDL_CSV],
    plots: &[Plot {
        svg: "ablation_ddl.svg",
        title: "Ablation — deadline policy",
        x_label: "policy",
        y_label: "converged utility",
        marks: Marks::Bars(Bars {
            csv: DDL_CSV,
            label: "{policy}",
            value: "utility",
            whisker: None,
        }),
    }],
    run: ddl,
};

/// `ablation-dynamics`.
pub const DYNAMICS: Figure = Figure {
    name: "ablation-dynamics",
    shows: "*(extra)* Trim vs Reinitialize dynamics after a committee failure",
    params: "|I|=50, Ĉ=40K, α=1.5, Γ=4",
    files: &[DYNAMICS_CSV],
    plots: &[Plot {
        svg: "ablation_dynamics.svg",
        title: "Ablation — Trim vs Reinitialize after a failure",
        x_label: "iteration",
        y_label: "system utility",
        marks: Marks::Lines(&[Lines {
            csv: DYNAMICS_CSV,
            x: "iteration",
            y: "utility",
            label: "{policy}",
        }]),
    }],
    run: dynamics,
};

/// MaxArrival vs MaxSelected deadline semantics.
fn ddl(scale: Scale, threads: usize) -> Result<FigureReport> {
    let n = scale.committees(50).max(20);
    let capacity = 1_000 * n as u64;
    let iters = scale.iters(2_000);
    let base = paper_instance(n, capacity, 1.5, 30_000)?;

    // One point per policy, same seed: only the deadline rule differs.
    let policies = vec![DdlPolicy::MaxArrival, DdlPolicy::MaxSelected];
    let points = mvcom_simnet::ordered_map(threads, policies, |policy| {
        let instance = InstanceBuilder::new()
            .alpha(1.5)
            .capacity(capacity)
            .n_min(n / 2)
            .ddl_policy(policy)
            .shards(base.shards().to_vec())
            .build()?;
        let config = SeConfig {
            gamma: 10,
            max_iterations: iters,
            convergence_window: 0,
            ..SeConfig::paper(30_001)
        };
        let outcome = SeEngine::new(&instance, config)?.run();
        // Evaluate both schedules under MaxSelected semantics for an
        // apples-to-apples block-formation comparison: what deadline does
        // the chosen set actually induce?
        let induced_ddl = instance.selected_ddl(&outcome.best_solution);
        Ok((policy, outcome, induced_ddl))
    })
    .into_iter()
    .collect::<Result<Vec<_>>>()?;

    let mut report = FigureReport::default();
    for (policy, outcome, induced_ddl) in &points {
        report.note(format!(
            "{policy:?}: utility {:.1}, {} admitted, induced deadline {:.0}s",
            outcome.best_utility,
            outcome.best_solution.selected_count(),
            induced_ddl,
        ));
    }
    report.add_csv(
        DDL_CSV,
        &["policy", "utility", "admitted", "induced_ddl_s"],
        points.iter().map(|(policy, outcome, induced_ddl)| {
            vec![
                format!("{policy:?}"),
                format!("{:.2}", outcome.best_utility),
                outcome.best_solution.selected_count().to_string(),
                format!("{induced_ddl:.1}"),
            ]
        }),
    );
    report.note(
        "MaxSelected internalizes the straggler cost: expect a smaller induced \
         deadline at similar throughput",
    );
    Ok(report)
}

/// One recovery policy's run of the failure scenario.
struct Recovery {
    policy: DynamicsPolicy,
    rows: Vec<Vec<String>>,
    /// Utility lost at the failure.
    drop: f64,
    /// Iterations from the failure until `current_best` re-reaches 99% of
    /// the final utility.
    recovery: Option<u64>,
    best_utility: f64,
}

/// Trim vs Reinitialize recovery after a mid-run failure.
fn dynamics(scale: Scale, threads: usize) -> Result<FigureReport> {
    let n = scale.committees(50).max(20);
    let capacity = 800 * n as u64;
    let iters = scale.iters(1_500);
    let instance = paper_instance(n, capacity, 1.5, 31_000)?;
    let victim = instance.shards()[n / 3].committee();
    let events = vec![TimedEvent::leave(iters / 3, victim)];

    // One point per policy, same seed: only the recovery rule differs.
    let policies = vec![DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize];
    let points = mvcom_simnet::ordered_map(threads, policies, |policy| {
        let config = SeConfig {
            gamma: 4,
            max_iterations: iters,
            convergence_window: 0,
            record_every: 1,
            ..SeConfig::paper(31_001)
        };
        let online = run_online(&instance, config, &events, policy)?;
        let [record] = online.events.as_slice() else {
            return Err(Error::simulation(format!(
                "the ablation schedules one failure; {} events were applied",
                online.events.len()
            )));
        };
        let best_utility = online.outcome.best_utility;
        let target = best_utility - 0.01 * best_utility.abs().max(1.0);
        let trajectory = online.outcome.trajectory.points();
        Ok(Recovery {
            policy,
            rows: downsample(trajectory, 200)
                .iter()
                .map(|p| {
                    vec![
                        format!("{policy:?}"),
                        p.iteration.to_string(),
                        format!("{:.2}", p.current_best),
                    ]
                })
                .collect(),
            drop: record.utility_before - record.utility_after,
            recovery: trajectory
                .iter()
                .find(|p| p.iteration > record.at_iteration && p.current_best >= target)
                .map(|p| p.iteration - record.at_iteration),
            best_utility,
        })
    })
    .into_iter()
    .collect::<Result<Vec<Recovery>>>()?;

    let mut report = FigureReport::default();
    for point in &points {
        report.note(format!(
            "{:?}: perturbation {:.1}, recovery to 99% of final in {:?} iterations, final {:.1}",
            point.policy, point.drop, point.recovery, point.best_utility
        ));
    }
    report.add_csv(
        DYNAMICS_CSV,
        &["policy", "iteration", "utility"],
        points.iter().flat_map(|point| point.rows.iter().cloned()),
    );
    // Shape check: the warm-started Trim policy perturbs less than a full
    // reinitialization.
    report.check(
        "Trim perturbs utility no more than Reinitialize",
        matches!(points.as_slice(), [trim, reinit] if trim.drop <= reinit.drop + 1e-9),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tests::honours_its_declaration;

    #[test]
    fn ddl_quick_run_honours_its_declaration_and_reports_both_policies() {
        let report = honours_its_declaration(&DDL);
        let csv = &report.files[0].1;
        assert!(csv.contains("MaxArrival"));
        assert!(csv.contains("MaxSelected"));
    }

    #[test]
    fn dynamics_quick_run_honours_its_declaration() {
        honours_its_declaration(&DYNAMICS);
    }
}
