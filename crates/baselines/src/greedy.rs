//! Density-greedy reference solver.

use mvcom_core::{Instance, Solution};
use mvcom_types::Result;

use crate::dp::repair_n_min;
use crate::{Solver, SolverOutcome};

/// Greedy selection by marginal-utility density.
///
/// Sorts shards by `(α·s_i − Π_i) / s_i` descending, admits every shard
/// with positive marginal utility that fits in the remaining capacity,
/// then restores `N_min` through the DP's [`repair_n_min`], which refills
/// in this density order if it has to restart.
///
/// This is the classical knapsack density heuristic; it gives a fast,
/// deterministic lower bar that the stochastic solvers should beat or match.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySolver {
    _private: (),
}

impl GreedySolver {
    /// Creates the solver.
    pub fn new() -> GreedySolver {
        GreedySolver { _private: () }
    }
}

impl Solver for GreedySolver {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn solve(&self, instance: &Instance) -> Result<SolverOutcome> {
        let n = instance.len();
        let mut order: Vec<usize> = (0..n).collect();
        mvcom_types::sort_by_f64_desc(&mut order, |&i| {
            instance.marginal_utility(i) / instance.size(i).max(1) as f64
        });

        // Density and marginal share a sign (s_i ≥ 0), so every paying
        // shard comes before the first non-positive one.
        let mut solution = Solution::empty(n);
        for &i in &order {
            if instance.marginal_utility(i) <= 0.0 {
                break;
            }
            if solution.tx_total() + instance.size(i) <= instance.capacity() {
                solution.insert(i, instance);
            }
        }
        let solution = repair_n_min(instance, solution, &order)?;
        let best_utility = instance.utility(&solution);
        Ok(SolverOutcome {
            solver: self.name().to_string(),
            best_solution: solution,
            best_utility,
            trajectory: vec![(0, best_utility)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_outcome;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::test_support::{instance, tiny};
    use mvcom_core::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    #[test]
    fn produces_feasible_solutions() {
        for seed in 0..5 {
            let inst = instance(24, seed);
            let outcome = GreedySolver::new().solve(&inst).unwrap();
            check_outcome(&inst, &outcome).unwrap();
        }
    }

    #[test]
    fn never_beats_the_exhaustive_optimum() {
        let inst = tiny();
        let greedy = GreedySolver::new().solve(&inst).unwrap();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        assert!(greedy.best_utility <= exact.best_utility + 1e-9);
    }

    #[test]
    fn picks_obviously_dominant_shards() {
        // Two shards, both fit: one has hugely positive marginal, the
        // other hugely negative. Greedy must take exactly the first.
        let inst = InstanceBuilder::new()
            .alpha(1.0)
            .capacity(10_000)
            .n_min(0)
            .shards(vec![
                ShardInfo::new(
                    CommitteeId(0),
                    1_000,
                    TwoPhaseLatency::from_total(SimTime::from_secs(5_000.0)),
                ),
                ShardInfo::new(
                    CommitteeId(1),
                    10,
                    TwoPhaseLatency::from_total(SimTime::from_secs(0.0)),
                ),
            ])
            .build()
            .unwrap();
        let outcome = GreedySolver::new().solve(&inst).unwrap();
        assert_eq!(
            outcome.best_solution.iter_selected().collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn n_min_repair_admits_negative_marginals_when_forced() {
        let inst = InstanceBuilder::new()
            .alpha(0.01)
            .capacity(1_000)
            .n_min(2)
            .shards(vec![
                ShardInfo::new(
                    CommitteeId(0),
                    100,
                    TwoPhaseLatency::from_total(SimTime::from_secs(1_000.0)),
                ),
                ShardInfo::new(
                    CommitteeId(1),
                    100,
                    TwoPhaseLatency::from_total(SimTime::from_secs(0.0)),
                ),
                ShardInfo::new(
                    CommitteeId(2),
                    100,
                    TwoPhaseLatency::from_total(SimTime::from_secs(500.0)),
                ),
            ])
            .build()
            .unwrap();
        let outcome = GreedySolver::new().solve(&inst).unwrap();
        assert!(outcome.best_solution.selected_count() >= 2);
        check_outcome(&inst, &outcome).unwrap();
    }
}
