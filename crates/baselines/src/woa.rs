//! Whale Optimization Algorithm baseline (paper §VI-B, refs. \[25\], \[26\]).
//!
//! WOA (Mirjalili & Lewis, 2016) is a continuous population metaheuristic
//! imitating humpback bubble-net hunting: each *whale* updates its position
//! by encircling the best-known prey (`|A| < 1`), spiralling towards it, or
//! exploring around a random peer (`|A| ≥ 1`). MVCom is binary, so we use
//! the standard *binary WOA* construction: whales live in `ℝ^|I|`, and a
//! sigmoid transfer function maps each coordinate to a selection
//! probability before feasibility repair. The continuous-to-binary mapping
//! is exactly why WOA trails the purpose-built solvers in the paper's
//! Figs. 10–14 — the search geometry does not match the combinatorial
//! neighborhood.

use rand::Rng;

use mvcom_core::{Instance, Solution};
use mvcom_types::{Error, Result};

use crate::{Solver, SolverOutcome};

/// Population size (number of whales), as in common WOA settings.
const POPULATION: usize = 30;
/// Spiral shape constant `b` in `e^{bl}·cos(2πl)`.
const SPIRAL_B: f64 = 1.0;

/// WOA parameters. The swarm is fixed: 30 whales on a spiral of shape
/// constant `b = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WoaConfig {
    /// Iteration budget.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
}

impl WoaConfig {
    /// The paper-scale budget: 3,000 iterations.
    pub fn paper(seed: u64) -> WoaConfig {
        WoaConfig {
            iterations: 3_000,
            seed,
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.iterations == 0 {
            return Err(Error::invalid_config("iterations", "must be positive"));
        }
        Ok(())
    }
}

/// The binary Whale Optimization solver.
///
/// # Example
///
/// ```
/// use mvcom_baselines::{woa::WoaConfig, Solver, WoaSolver};
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// # fn main() -> Result<(), mvcom_types::Error> {
/// let instance = InstanceBuilder::new()
///     .alpha(1.5).capacity(700).n_min(2)
///     .shards((0..8).map(|i| ShardInfo::new(
///         CommitteeId(i), 100,
///         TwoPhaseLatency::from_total(SimTime::from_secs(300.0 + 30.0 * f64::from(i))),
///     )).collect())
///     .build()?;
/// let config = WoaConfig { iterations: 200, ..WoaConfig::paper(1) };
/// let outcome = WoaSolver::new(config).solve(&instance)?;
/// assert!(instance.is_feasible(&outcome.best_solution));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WoaSolver {
    config: WoaConfig,
}

impl WoaSolver {
    /// Creates a solver with the given parameters.
    pub fn new(config: WoaConfig) -> WoaSolver {
        WoaSolver { config }
    }

    /// Binarizes a continuous position and repairs it to feasibility:
    /// sigmoid-threshold each coordinate, drop the lowest-scoring selected
    /// shards while over capacity, then add the highest-scoring unselected
    /// shards that fit until `N_min`.
    fn decode<R: Rng + ?Sized>(
        position: &[f64],
        instance: &Instance,
        rng: &mut R,
    ) -> Option<Solution> {
        let n = instance.len();
        let mut scored: Vec<(usize, f64)> = position
            .iter()
            .enumerate()
            .map(|(i, &x)| (i, 1.0 / (1.0 + (-x).exp())))
            .collect();
        let mut solution = Solution::empty(n);
        for &(i, p) in &scored {
            if rng.gen::<f64>() < p {
                solution.insert(i, instance);
            }
        }
        // Repair capacity: drop the lowest-probability members first.
        mvcom_types::sort_by_f64(&mut scored, |s| s.1);
        for &(i, _) in &scored {
            if solution.tx_total() <= instance.capacity() {
                break;
            }
            if solution.contains(i) {
                solution.remove(i, instance);
            }
        }
        // Repair N_min: add the highest-probability non-members that fit.
        for &(i, _) in scored.iter().rev() {
            if solution.selected_count() >= instance.n_min() {
                break;
            }
            if !solution.contains(i)
                && solution.tx_total() + instance.shards()[i].tx_count() <= instance.capacity()
            {
                solution.insert(i, instance);
            }
        }
        instance.is_feasible(&solution).then_some(solution)
    }
}

impl Solver for WoaSolver {
    fn name(&self) -> &'static str {
        "woa"
    }

    fn solve(&self, instance: &Instance) -> Result<SolverOutcome> {
        self.config.validate()?;
        let mut rng = mvcom_simnet::rng::master(self.config.seed);
        let n = instance.len();
        let pop = POPULATION;

        // Initialize whale positions in [-1, 1]^n.
        let mut whales: Vec<Vec<f64>> = (0..pop)
            .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();

        let mut best_position = whales[0].clone();
        let mut best_solution: Option<Solution> = None;
        let mut best_utility = f64::NEG_INFINITY;
        let mut trajectory = Vec::with_capacity(self.config.iterations as usize + 1);

        let evaluate = |position: &[f64],
                        rng: &mut mvcom_simnet::SimRng,
                        best_position: &mut Vec<f64>,
                        best_solution: &mut Option<Solution>,
                        best_utility: &mut f64| {
            if let Some(sol) = Self::decode(position, instance, rng) {
                let u = instance.utility(&sol);
                if u > *best_utility {
                    *best_utility = u;
                    *best_solution = Some(sol);
                    *best_position = position.to_vec();
                }
            }
        };

        for whale in &whales {
            evaluate(
                whale,
                &mut rng,
                &mut best_position,
                &mut best_solution,
                &mut best_utility,
            );
        }
        trajectory.push((0u64, best_utility));

        for iter in 1..=self.config.iterations {
            // a decreases linearly 2 → 0 over the run (exploration →
            // exploitation), per the original WOA.
            let a = 2.0 * (1.0 - iter as f64 / self.config.iterations as f64);
            for w in 0..pop {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                let big_a = 2.0 * a * r1 - a;
                let big_c = 2.0 * r2;
                let p: f64 = rng.gen();
                let next: Vec<f64> = if p < 0.5 {
                    if big_a.abs() < 1.0 {
                        // Encircle the best-known prey.
                        (0..n)
                            .map(|d| {
                                let dist = (big_c * best_position[d] - whales[w][d]).abs();
                                best_position[d] - big_a * dist
                            })
                            .collect()
                    } else {
                        // Explore around a random peer.
                        let peer = rng.gen_range(0..pop);
                        (0..n)
                            .map(|d| {
                                let dist = (big_c * whales[peer][d] - whales[w][d]).abs();
                                whales[peer][d] - big_a * dist
                            })
                            .collect()
                    }
                } else {
                    // Spiral bubble-net attack.
                    let l: f64 = rng.gen_range(-1.0..1.0);
                    (0..n)
                        .map(|d| {
                            let dist = (best_position[d] - whales[w][d]).abs();
                            dist * (SPIRAL_B * l).exp() * (2.0 * std::f64::consts::PI * l).cos()
                                + best_position[d]
                        })
                        .collect()
                };
                // Clamp to keep the sigmoid responsive.
                let next: Vec<f64> = next.into_iter().map(|x| x.clamp(-6.0, 6.0)).collect();
                evaluate(
                    &next,
                    &mut rng,
                    &mut best_position,
                    &mut best_solution,
                    &mut best_utility,
                );
                whales[w] = next;
            }
            trajectory.push((iter, best_utility));
        }

        let best_solution = best_solution
            .ok_or_else(|| Error::infeasible("WOA never decoded a feasible solution"))?;
        Ok(SolverOutcome {
            solver: self.name().to_string(),
            best_utility,
            best_solution,
            trajectory,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_outcome;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::test_support::{instance, tiny};

    fn quick(seed: u64) -> WoaConfig {
        WoaConfig {
            iterations: 300,
            ..WoaConfig::paper(seed)
        }
    }

    #[test]
    fn produces_feasible_solutions() {
        for seed in 0..4 {
            let inst = instance(25, seed);
            let outcome = WoaSolver::new(quick(seed)).solve(&inst).unwrap();
            check_outcome(&inst, &outcome).unwrap();
        }
    }

    #[test]
    fn never_beats_the_exhaustive_optimum() {
        let inst = tiny();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        let woa = WoaSolver::new(quick(1)).solve(&inst).unwrap();
        assert!(woa.best_utility <= exact.best_utility + 1e-9);
    }

    #[test]
    fn trajectory_is_monotone_best_so_far() {
        let inst = instance(20, 2);
        let outcome = WoaSolver::new(quick(2)).solve(&inst).unwrap();
        for w in outcome.trajectory.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
        assert_eq!(outcome.trajectory.len() as u64, quick(2).iterations + 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance(15, 3);
        let a = WoaSolver::new(quick(9)).solve(&inst).unwrap();
        let b = WoaSolver::new(quick(9)).solve(&inst).unwrap();
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.best_utility, b.best_utility);
    }

    #[test]
    fn config_validation() {
        assert!(WoaConfig {
            iterations: 0,
            ..WoaConfig::paper(0)
        }
        .validate()
        .is_err());
        assert!(WoaConfig::paper(0).validate().is_ok());
    }
}
