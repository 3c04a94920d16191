//! Simulated Annealing baseline (paper §VI-B, ref. \[22\]).

use rand::Rng;

use mvcom_core::{EvalCache, Instance, Solution};
use mvcom_types::{Error, Result};

use crate::{Solver, SolverOutcome};

/// Initial temperature, calibrated to the paper's utility scales (a few
/// thousand — the magnitude of one shard's marginal utility). The accept
/// probability of a move with `ΔU < 0` is `exp(ΔU / T)`, so `T` is measured
/// in utility units.
const T0: f64 = 2_000.0;
/// Geometric cooling factor per iteration, `T ← COOLING·T`.
const COOLING: f64 = 0.995;
/// Temperature floor; cooling stops here so late iterations still escape
/// plateaus occasionally.
const T_MIN: f64 = 1.0;

/// Simulated-annealing parameters. The temperature schedule is fixed:
/// `T₀ = 2000`, cooled by `0.995` per iteration down to a floor of `1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Iteration budget.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
}

impl SaConfig {
    /// The paper-scale budget: 3,000 iterations.
    pub fn paper(seed: u64) -> SaConfig {
        SaConfig {
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

/// The Simulated Annealing solver.
///
/// Explores the same neighborhood as the SE engine — swap one admitted
/// shard for one excluded shard — plus *insert* and *remove* moves so the
/// cardinality is not frozen by the initial state. Moves violating either
/// constraint are rejected outright; worsening feasible moves are accepted
/// with the Metropolis probability `exp(ΔU/T)`.
///
/// # Example
///
/// ```
/// use mvcom_baselines::{sa::SaConfig, SaSolver, Solver};
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// # fn main() -> Result<(), mvcom_types::Error> {
/// let instance = InstanceBuilder::new()
///     .alpha(1.5).capacity(900).n_min(2)
///     .shards((0..10).map(|i| ShardInfo::new(
///         CommitteeId(i), 100,
///         TwoPhaseLatency::from_total(SimTime::from_secs(400.0 + 20.0 * f64::from(i))),
///     )).collect())
///     .build()?;
/// let outcome = SaSolver::new(SaConfig::paper(1)).solve(&instance)?;
/// assert!(instance.is_feasible(&outcome.best_solution));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SaSolver {
    config: SaConfig,
}

impl SaSolver {
    /// Creates a solver with the given parameters.
    pub fn new(config: SaConfig) -> SaSolver {
        SaSolver { config }
    }
}

enum Move {
    Swap(usize, usize),
    Insert(usize),
    Remove(usize),
}

impl Solver for SaSolver {
    fn name(&self) -> &'static str {
        "sa"
    }

    fn solve(&self, instance: &Instance) -> Result<SolverOutcome> {
        self.config.validate()?;
        let mut rng = mvcom_simnet::rng::master(self.config.seed);
        let n = instance.len();

        // Initial state: the N_min smallest shards (at least one).
        let smallest = instance.smallest(instance.n_min().max(1).min(n));
        let mut current = Solution::from_indices(n, smallest, instance);
        if !instance.is_feasible(&current) {
            return Err(Error::infeasible(
                "no initial SA state satisfies the constraints",
            ));
        }
        // Incremental evaluator: O(log n) move pricing without cloning the
        // solution, even under the non-separable MaxSelected deadline.
        let mut cache = EvalCache::new(instance, &current);
        let mut current_u = instance.utility(&current);
        let mut best = current.clone();
        let mut best_u = current_u;
        let mut trajectory = vec![(0u64, best_u)];
        let mut temperature = T0;

        for iter in 1..=self.config.iterations {
            let mv = propose_move(&current, instance, &mut rng);
            if let Some(mv) = mv {
                let delta = match &mv {
                    Move::Swap(out, inc) => cache.swap_delta(instance, &current, *out, *inc),
                    Move::Insert(inc) => cache.insert_delta(instance, &current, *inc),
                    Move::Remove(out) => cache.remove_delta(instance, &current, *out),
                };
                let accept = delta >= 0.0 || rng.gen::<f64>() < (delta / temperature).exp();
                if accept {
                    match mv {
                        Move::Swap(out, inc) => {
                            current.swap(out, inc, instance);
                            cache.swap(out, inc);
                        }
                        Move::Insert(inc) => {
                            current.insert(inc, instance);
                            cache.insert(inc);
                        }
                        Move::Remove(out) => {
                            current.remove(out, instance);
                            cache.remove(out);
                        }
                    }
                    current_u += delta;
                    if current_u > best_u && instance.is_feasible(&current) {
                        best_u = current_u;
                        best = current.clone();
                    }
                }
            }
            temperature = (temperature * COOLING).max(T_MIN);
            trajectory.push((iter, best_u));
        }
        // Exact re-evaluation guards against drift of the incremental sum.
        let best_utility = instance.utility(&best);
        Ok(SolverOutcome {
            solver: self.name().to_string(),
            best_solution: best,
            best_utility,
            trajectory,
        })
    }
}

/// Draws one random feasibility-preserving move, or `None` if the sampled
/// move kind has no legal realization this round.
fn propose_move<R: Rng + ?Sized>(
    current: &Solution,
    instance: &Instance,
    rng: &mut R,
) -> Option<Move> {
    match rng.gen_range(0..3) {
        0 => {
            // Swap: preserves cardinality; must respect capacity.
            let out = current.random_selected(rng)?;
            let inc = current.random_unselected(rng)?;
            let new_total = current.tx_total() - instance.size(out) + instance.size(inc);
            (new_total <= instance.capacity()).then_some(Move::Swap(out, inc))
        }
        1 => {
            // Insert: must respect capacity.
            let inc = current.random_unselected(rng)?;
            (current.tx_total() + instance.size(inc) <= instance.capacity())
                .then_some(Move::Insert(inc))
        }
        _ => {
            // Remove: must respect N_min.
            if current.selected_count() <= instance.n_min() || current.selected_count() <= 1 {
                return None;
            }
            current.random_selected(rng).map(Move::Remove)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_outcome;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::test_support::{instance, tiny};

    #[test]
    fn produces_feasible_solutions() {
        for seed in 0..4 {
            let inst = instance(30, seed);
            let outcome = SaSolver::new(SaConfig::paper(seed)).solve(&inst).unwrap();
            check_outcome(&inst, &outcome).unwrap();
        }
    }

    #[test]
    fn trajectory_is_monotone_best_so_far() {
        let inst = instance(25, 1);
        let outcome = SaSolver::new(SaConfig::paper(2)).solve(&inst).unwrap();
        assert_eq!(
            outcome.trajectory.len() as u64,
            SaConfig::paper(2).iterations + 1
        );
        for w in outcome.trajectory.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-9);
        }
    }

    #[test]
    fn approaches_the_exhaustive_optimum_on_tiny_instances() {
        let inst = tiny();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        let sa = SaSolver::new(SaConfig {
            iterations: 5_000,
            ..SaConfig::paper(3)
        })
        .solve(&inst)
        .unwrap();
        assert!(sa.best_utility <= exact.best_utility + 1e-9);
        assert!(
            sa.best_utility >= 0.95 * exact.best_utility,
            "SA {} far below optimum {}",
            sa.best_utility,
            exact.best_utility
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let inst = instance(20, 2);
        let a = SaSolver::new(SaConfig::paper(7)).solve(&inst).unwrap();
        let b = SaSolver::new(SaConfig::paper(7)).solve(&inst).unwrap();
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn config_validation() {
        assert!(SaConfig {
            iterations: 0,
            ..SaConfig::paper(0)
        }
        .validate()
        .is_err());
        assert!(SaConfig::paper(0).validate().is_ok());
    }
}
