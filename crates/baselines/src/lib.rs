//! Baseline solvers for the MVCom committee-scheduling problem.
//!
//! The paper (§VI-B) compares its Stochastic-Exploration algorithm against
//! three baselines, all implemented here over the same
//! [`Instance`] model so utilities are directly
//! comparable:
//!
//! * [`sa`] — **Simulated Annealing**: Metropolis acceptance over the same
//!   swap/insert/remove neighborhood, geometric cooling.
//! * [`dp`] — **Dynamic Programming**: the classical 0/1-knapsack DP over
//!   bucketed capacity, run as a Pareto frontier of dominant states; exact
//!   on the separable relaxation but blind to the `N_min` constraint until
//!   a repair pass, and quantized by the bucket granularity — which is
//!   exactly why the paper observes it trailing SE.
//! * [`woa`] — **Whale Optimization Algorithm** (Mirjalili & Lewis 2016):
//!   a binary variant using a sigmoid transfer function, with feasibility
//!   repair.
//!
//! Two reference solvers support testing and calibration:
//!
//! * [`greedy`] — density-greedy selection, the natural lower bar; it
//!   restores `N_min` through the DP's [`dp::repair_n_min`].
//! * [`exhaustive`] — exact optimum by enumeration (≤ 26 shards), the
//!   ground truth for property tests.
//!
//! Every solver implements the [`Solver`] trait and records a best-so-far
//! trajectory, so the figure harness can overlay convergence curves of SE
//! and all baselines (paper Figs. 11–14).

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]
pub mod dp;
pub mod exhaustive;
pub mod greedy;
pub mod sa;
pub mod woa;

use mvcom_core::{Instance, Solution};
use mvcom_types::Result;

pub use dp::DpSolver;
pub use exhaustive::ExhaustiveSolver;
pub use greedy::GreedySolver;
pub use sa::SaSolver;
pub use woa::WoaSolver;

/// The former name of the frontier DP, which is now [`DpSolver`] itself.
/// Kept because `benchmark/src/workloads/{mod.rs, solve.rs}` call it; it
/// goes when the benchmark is next rebuilt (ROADMAP item 1(f)).
pub type SparseDpSolver = DpSolver;

/// The result of one solver run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverOutcome {
    /// Short machine-readable solver name (`"sa"`, `"dp"`, ...).
    pub solver: String,
    /// The best feasible solution found.
    pub best_solution: Solution,
    /// Its utility.
    pub best_utility: f64,
    /// `(iteration, best-so-far utility)` samples for convergence plots.
    /// One-shot solvers (DP, greedy) report a single point.
    pub trajectory: Vec<(u64, f64)>,
}

/// A solver of the MVCom problem.
///
/// Implementations must return a solution satisfying both constraints
/// (`Σx ≥ N_min`, `Σx·s ≤ Ĉ`) or an error — never an infeasible "best
/// effort".
pub trait Solver {
    /// Solver name used in figures and logs.
    fn name(&self) -> &'static str;

    /// Solves `instance`.
    ///
    /// # Errors
    ///
    /// Implementation-specific; all return [`mvcom_types::Error`] variants
    /// (infeasibility, invalid configuration, non-convergence).
    fn solve(&self, instance: &Instance) -> Result<SolverOutcome>;
}

/// Runs `solver` and replays its convergence trajectory into `obs` as
/// `solver_point` events (sampled at ~50 points per run, endpoints always
/// included), closing with one `solver_done` event. The clock of these
/// events is the solver's iteration index. Emission happens after the
/// solve, so telemetry can never perturb a solver's RNG stream.
///
/// # Errors
///
/// Whatever [`Solver::solve`] returns.
pub fn solve_observed(
    solver: &dyn Solver,
    instance: &Instance,
    obs: &mvcom_obs::Obs,
) -> Result<SolverOutcome> {
    let outcome = solver.solve(instance)?;
    if obs.enabled(mvcom_obs::ObsLevel::Events) {
        let stride = (outcome.trajectory.len() / 50).max(1);
        let last = outcome.trajectory.len().saturating_sub(1);
        for (i, &(iter, best)) in outcome.trajectory.iter().enumerate() {
            if i % stride != 0 && i != last {
                continue;
            }
            obs.emit(
                "solver_point",
                iter as f64,
                &[
                    ("solver", mvcom_obs::Value::from(outcome.solver.as_str())),
                    ("iter", mvcom_obs::Value::U64(iter)),
                    ("best", mvcom_obs::Value::F64(best)),
                ],
            );
        }
        let iters = outcome.trajectory.last().map_or(0, |&(iter, _)| iter);
        obs.emit(
            "solver_done",
            iters as f64,
            &[
                ("solver", mvcom_obs::Value::from(outcome.solver.as_str())),
                ("iters", mvcom_obs::Value::U64(iters)),
                ("best", mvcom_obs::Value::F64(outcome.best_utility)),
            ],
        );
    }
    Ok(outcome)
}

/// Validates a solver outcome against an instance — shared test helper.
pub fn check_outcome(instance: &Instance, outcome: &SolverOutcome) -> Result<()> {
    if !instance.is_feasible(&outcome.best_solution) {
        return Err(mvcom_types::Error::infeasible(format!(
            "{} returned an infeasible solution",
            outcome.solver
        )));
    }
    let recomputed = instance.utility(&outcome.best_solution);
    if (recomputed - outcome.best_utility).abs() > 1e-6 * (1.0 + recomputed.abs()) {
        return Err(mvcom_types::Error::invalid_instance(format!(
            "{} reported utility {} but the solution evaluates to {recomputed}",
            outcome.solver, outcome.best_utility
        )));
    }
    Ok(())
}

#[cfg(test)]
mod observed_tests {
    use super::test_support::{instance, tiny};
    use super::*;
    use mvcom_obs::{Obs, ObsLevel};

    #[test]
    fn observed_solve_matches_plain_solve_and_emits_points() {
        let inst = instance(20, 3);
        let solver = SaSolver::new(sa::SaConfig::paper(5));
        let (obs, buf) = Obs::memory(ObsLevel::Events);
        let observed = solve_observed(&solver, &inst, &obs).unwrap();
        let plain = solver.solve(&inst).unwrap();
        assert_eq!(observed, plain, "telemetry must not perturb the solver");
        let text = buf.contents();
        assert!(text.contains("\"kind\":\"solver_point\""));
        assert!(text.contains("\"kind\":\"solver_done\""));
        assert!(text.contains("\"solver\":\"sa\""));
        assert_eq!(obs.invalid_dropped(), 0);
        let points = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"solver_point\""))
            .count();
        assert!((2..=60).contains(&points), "sampled to ~50, got {points}");
    }

    #[test]
    fn one_shot_solvers_emit_a_single_point() {
        let inst = tiny();
        let (obs, buf) = Obs::memory(ObsLevel::Events);
        solve_observed(&GreedySolver::new(), &inst, &obs).unwrap();
        let text = buf.contents();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"kind\":\"solver_point\""))
                .count(),
            1
        );
        assert!(text.contains("\"kind\":\"solver_done\""));
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use mvcom_core::problem::InstanceBuilder;
    use mvcom_core::Instance;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    /// A reproducible medium instance with an active capacity constraint.
    pub fn instance(n: usize, seed_shift: u64) -> Instance {
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity((n as u64) * 110)
            .n_min(n / 3)
            .shards(
                (0..n)
                    .map(|i| {
                        let k = i as u64 + seed_shift;
                        ShardInfo::new(
                            CommitteeId(i as u32),
                            70 + (k * 37) % 120,
                            TwoPhaseLatency::from_total(SimTime::from_secs(
                                300.0 + ((k * 97) % 800) as f64,
                            )),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    /// A tiny instance whose optimum is enumerable.
    pub fn tiny() -> Instance {
        instance(10, 0)
    }
}
