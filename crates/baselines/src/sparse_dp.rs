//! Sparse dynamic-programming baseline for the 10⁴–10⁵ committee regime.
//!
//! The dense knapsack DP in [`crate::dp`] keeps a `|I| × (buckets+1)`
//! boolean take/skip table for reconstruction — one heap-allocated row
//! per committee. At `|I| = 100 000` that is ~51 MB of `Vec<bool>` plus
//! 100k allocations, and the value array is rescanned wholesale for every
//! item regardless of how few states are actually reachable.
//!
//! [`SparseDpSolver`] computes the *same relaxation* with two structural
//! changes:
//!
//! 1. **Dominant-state (Pareto-frontier) pruning.** Only states
//!    `(weight, value)` that are not dominated — no other state is both
//!    lighter-or-equal and at-least-as-valuable — are kept. The frontier
//!    is sorted strictly increasing in weight *and* value, so it never
//!    exceeds `buckets + 1` entries and is usually far smaller; merging
//!    an item is a linear two-pointer pass instead of a full-table scan.
//! 2. **Bit-packed reconstruction.** The take/skip table shrinks to one
//!    bit per `(item, weight)` cell in a single flat allocation
//!    (~6.4 MB at `|I| = 100k`, `buckets = 512`).
//!
//! Capacity bucketing is identical to the dense solver (weights rounded
//! **up** at granularity `⌈Ĉ/max_buckets⌉`, so DP-feasible ⇒ feasible),
//! and the `N_min` repair pass is literally shared code
//! (`crate::dp::repair_n_min`). The two solvers therefore find the same
//! optimal *value* on every instance; they may reconstruct different
//! equal-value selections when ties exist, which is why the differential
//! tests compare utilities and feasibility rather than bitsets.

use serde::{Deserialize, Serialize};

use mvcom_core::{DdlPolicy, Instance, Solution};
use mvcom_types::{Error, Result};

use crate::dp::{repair_n_min, DpConfig};
use crate::{Solver, SolverOutcome};

/// One dominant DP state: `weight` is the exact bucketed weight of its
/// item set, `value` the summed marginal utility. Public so property
/// tests can assert the pruning invariant on [`pareto_frontier`] output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DpState {
    /// Exact total bucketed weight of the state's item set.
    pub weight: u32,
    /// Total value (summed marginal utilities) of the item set.
    pub value: f64,
}

/// Bit-packed take/skip matrix: one bit per `(item, weight)` cell.
struct KeepBits {
    words: Vec<u64>,
    /// Words per item row (`⌈(buckets+1)/64⌉`).
    stride: usize,
}

impl KeepBits {
    fn new(items: usize, buckets: u32) -> KeepBits {
        let stride = (buckets as usize + 1).div_ceil(64);
        KeepBits {
            words: vec![0u64; items * stride],
            stride,
        }
    }

    fn set(&mut self, item: usize, weight: u32) {
        let w = weight as usize;
        self.words[item * self.stride + w / 64] |= 1u64 << (w % 64);
    }

    fn get(&self, item: usize, weight: u32) -> bool {
        let w = weight as usize;
        self.words[item * self.stride + w / 64] >> (w % 64) & 1 == 1
    }
}

/// Runs the dominant-state knapsack DP and returns the final Pareto
/// frontier, sorted strictly increasing in both weight and value. The
/// last state carries the optimal value of the (bucketed, `N_min`-free)
/// relaxation — identical to the dense table's `dp[buckets]`.
///
/// Items with non-positive value or bucketed weight above `buckets` are
/// skipped, exactly as in the dense solver. Exposed for the
/// pruning-invariant property tests; [`SparseDpSolver`] is the
/// production entry point.
pub fn pareto_frontier(weights: &[u32], values: &[f64], buckets: u32) -> Vec<DpState> {
    run_frontier(weights, values, buckets).0
}

/// The frontier plus the reconstruction bits.
fn run_frontier(weights: &[u32], values: &[f64], buckets: u32) -> (Vec<DpState>, KeepBits) {
    assert_eq!(weights.len(), values.len());
    let mut keep = KeepBits::new(weights.len(), buckets);
    let mut frontier = vec![DpState {
        weight: 0,
        value: 0.0,
    }];
    let mut merged: Vec<DpState> = Vec::new();
    let mut candidates: Vec<DpState> = Vec::new();
    for (i, (&w_i, &v_i)) in weights.iter().zip(values).enumerate() {
        if v_i <= 0.0 || w_i > buckets {
            continue; // negative-value items never help the relaxation
        }
        // Extending every frontier state by item i preserves the sort:
        // weights shift by w_i, values by v_i.
        candidates.clear();
        candidates.extend(
            frontier
                .iter()
                .take_while(|s| s.weight + w_i <= buckets)
                .map(|s| DpState {
                    weight: s.weight + w_i,
                    value: s.value + v_i,
                }),
        );
        // Two-pointer merge keeping only dominant states. `best` is the
        // running max value over all lighter-or-equal states — the exact
        // analogue of the dense `candidate > dp[w]` test (strict, so on
        // value ties the skip state wins, matching the dense solver).
        merged.clear();
        let (mut a, mut b) = (0usize, 0usize);
        let mut best = f64::NEG_INFINITY;
        while a < frontier.len() || b < candidates.len() {
            let take_skip = b >= candidates.len()
                || (a < frontier.len() && frontier[a].weight <= candidates[b].weight);
            let (state, from_item) = if take_skip {
                a += 1;
                (frontier[a - 1], false)
            } else {
                b += 1;
                (candidates[b - 1], true)
            };
            if state.value > best {
                best = state.value;
                match merged.last_mut() {
                    // A same-weight survivor is dominated by this strictly
                    // better state: replace, don't duplicate the weight.
                    Some(last) if last.weight == state.weight => *last = state,
                    _ => merged.push(state),
                }
                if from_item {
                    keep.set(i, state.weight);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut merged);
    }
    (frontier, keep)
}

/// The sparse knapsack-DP solver.
///
/// Same contract and limitations as [`crate::dp::DpSolver`] (MaxArrival
/// only, `N_min` by repair, bucketing-inexact), but with
/// `O(frontier)` ≤ `O(buckets)` state per item and a bit-packed
/// reconstruction table — the memory drops from `O(|I|·Ĉ̂)` bytes to
/// `O(|I|·Ĉ̂/64)` words, which is what makes `|I| = 10⁵` tractable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseDpSolver {
    config: DpConfig,
}

impl SparseDpSolver {
    /// Creates a solver with the given bucket budget.
    pub fn new(config: DpConfig) -> SparseDpSolver {
        SparseDpSolver { config }
    }
}

impl Solver for SparseDpSolver {
    fn name(&self) -> &'static str {
        "sparse-dp"
    }

    fn solve(&self, instance: &Instance) -> Result<SolverOutcome> {
        self.config.validate()?;
        if instance.ddl_policy() != DdlPolicy::MaxArrival {
            return Err(Error::invalid_instance(
                "the DP baseline requires the separable MaxArrival objective",
            ));
        }
        let n = instance.len();
        let capacity = instance.capacity();
        let granularity = capacity.div_ceil(self.config.max_buckets as u64).max(1);
        let buckets = (capacity / granularity) as u32;

        let weights: Vec<u32> = (0..n)
            .map(|i| {
                // Oversized shards can't be taken anyway; saturate instead
                // of overflowing u32 on pathological tx counts.
                u32::try_from(instance.shards()[i].tx_count().div_ceil(granularity))
                    .unwrap_or(u32::MAX)
            })
            .collect();
        let values: Vec<f64> = (0..n).map(|i| instance.marginal_utility(i)).collect();

        let (frontier, keep) = run_frontier(&weights, &values, buckets);

        // Reconstruct from the best (last, by the strict value ordering)
        // state: every take lands exactly on its parent state's weight.
        let mut solution = Solution::empty(n);
        let mut w = frontier.last().map_or(0, |best| best.weight);
        for i in (0..n).rev() {
            if keep.get(i, w) {
                solution.insert(i, instance);
                w -= weights[i];
            }
        }
        debug_assert_eq!(w, 0, "reconstruction must unwind to the empty state");

        let solution = repair_n_min(instance, solution, &values)?;
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
    use crate::dp::DpSolver;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::test_support::{instance, tiny};
    use mvcom_core::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    #[test]
    fn produces_feasible_solutions_matching_dense_value() {
        for seed in 0..6 {
            let inst = instance(60, seed);
            let sparse = SparseDpSolver::default().solve(&inst).unwrap();
            check_outcome(&inst, &sparse).unwrap();
            let dense = DpSolver::default().solve(&inst).unwrap();
            assert!(
                (sparse.best_utility - dense.best_utility).abs()
                    < 1e-9 * (1.0 + dense.best_utility.abs()),
                "seed {seed}: sparse {} vs dense {}",
                sparse.best_utility,
                dense.best_utility
            );
        }
    }

    #[test]
    fn exact_when_capacity_fits_in_buckets() {
        let inst = InstanceBuilder::new()
            .alpha(2.0)
            .capacity(500)
            .n_min(0)
            .shards(
                (0..12)
                    .map(|i| {
                        ShardInfo::new(
                            CommitteeId(i),
                            40 + u64::from(i) * 13,
                            TwoPhaseLatency::from_total(SimTime::from_secs(
                                100.0 + 37.0 * f64::from(i % 5),
                            )),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap();
        let sparse = SparseDpSolver::new(DpConfig { max_buckets: 500 })
            .solve(&inst)
            .unwrap();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        assert!(
            (sparse.best_utility - exact.best_utility).abs() < 1e-6,
            "sparse {} vs exact {}",
            sparse.best_utility,
            exact.best_utility
        );
    }

    #[test]
    fn rejects_max_selected_policy() {
        let inst = InstanceBuilder::new()
            .capacity(1_000)
            .ddl_policy(DdlPolicy::MaxSelected)
            .shards(vec![ShardInfo::new(
                CommitteeId(0),
                10,
                TwoPhaseLatency::from_total(SimTime::from_secs(1.0)),
            )])
            .build()
            .unwrap();
        let err = SparseDpSolver::default().solve(&inst).unwrap_err();
        assert!(err.to_string().contains("MaxArrival"), "{err}");
    }

    #[test]
    fn frontier_is_strictly_increasing_in_weight_and_value() {
        let weights = [3u32, 5, 2, 7, 4, 1, 6, 2];
        let values = [9.0, 14.0, 5.0, 20.0, 11.0, 2.5, 16.0, 5.5];
        let frontier = pareto_frontier(&weights, &values, 20);
        assert_eq!(frontier[0].weight, 0);
        assert_eq!(frontier[0].value, 0.0);
        for pair in frontier.windows(2) {
            assert!(pair[0].weight < pair[1].weight, "{frontier:?}");
            assert!(pair[0].value < pair[1].value, "{frontier:?}");
        }
        // Optimal value equals all items (they all fit: Σw = 30 > 20, so
        // pruning actually had to choose).
        let best = frontier.last().unwrap();
        assert!(best.weight <= 20);
    }

    #[test]
    fn n_min_repair_kicks_in() {
        let inst = InstanceBuilder::new()
            .alpha(0.001)
            .capacity(1_000)
            .n_min(2)
            .shards(
                (0..5)
                    .map(|i| {
                        ShardInfo::new(
                            CommitteeId(i),
                            100,
                            TwoPhaseLatency::from_total(SimTime::from_secs(f64::from(i) * 100.0)),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap();
        let outcome = SparseDpSolver::default().solve(&inst).unwrap();
        assert_eq!(outcome.best_solution.selected_count(), 2);
        check_outcome(&inst, &outcome).unwrap();
    }

    #[test]
    fn handles_zero_weight_and_oversized_items() {
        // Weight-0 items (tiny shards under coarse granularity) must be
        // taken for free; oversized ones skipped without overflow.
        let weights = [0u32, 4, u32::MAX, 2];
        let values = [3.0, 8.0, 100.0, 5.0];
        let frontier = pareto_frontier(&weights, &values, 5);
        let best = frontier.last().unwrap();
        // 0-weight (3.0) + weight-2 (5.0) + ... weight-4 doesn't fit with
        // weight-2 (6 > 5), so best is 3 + 8 = 11 at weight 4.
        assert!((best.value - 11.0).abs() < 1e-12, "{frontier:?}");
        let tiny_inst = tiny();
        let outcome = SparseDpSolver::default().solve(&tiny_inst).unwrap();
        check_outcome(&tiny_inst, &outcome).unwrap();
    }
}
