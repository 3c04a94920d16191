//! Dynamic Programming baseline (paper §VI-B, refs. \[23\], \[24\]).
//!
//! Under the paper's MaxArrival deadline, MVCom without the `N_min`
//! constraint *is* a 0/1 knapsack: item value `α·s_i − Π_i`, item weight
//! `s_i`, capacity `Ĉ`. The exact DP is `O(|I|·Ĉ)`; at the paper's scales
//! (`Ĉ` up to 10⁸) it is only tractable with **capacity bucketing** —
//! weights are rounded *up* to a granularity `g = ⌈Ĉ / max_buckets⌉`,
//! which preserves feasibility but sacrifices optimality. Together with
//! the `N_min` repair pass ([`repair_n_min`]) this reproduces the
//! qualitative behaviour the paper reports for DP: decent utility, but
//! systematically below SE, and a poor Valuable Degree (DP maximizes value
//! with no regard for how the age is distributed).
//!
//! The recurrence keeps only **dominant states** (a Pareto frontier):
//! `(weight, value)` pairs that no other state beats on both counts. The
//! frontier is strictly increasing in weight *and* value, so it never
//! exceeds `buckets + 1` entries and merging an item is one linear
//! two-pointer pass. Reconstruction reads one take bit per
//! `(item, weight)` cell from a single flat allocation (~6.4 MB at
//! `|I| = 10⁵`, 512 buckets), which is what makes `|I| = 10⁵` tractable.

use mvcom_core::{DdlPolicy, Instance, Solution};
use mvcom_types::{Error, Result};

use crate::{Solver, SolverOutcome};

/// Dynamic-programming parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpConfig {
    /// Maximum number of capacity buckets. The effective weight
    /// granularity is `⌈Ĉ / max_buckets⌉`.
    pub max_buckets: usize,
}

impl DpConfig {
    /// The bucket budget of the paper figures. 512 buckets quantize the
    /// capacity at the paper's largest scale (`|I| = 1000`, `Ĉ = 10⁶`) to
    /// ~2000-TX steps — roughly two shards. This quantization (plus the
    /// `N_min` repair) is what leaves DP visibly below SE in the
    /// comparison figures, matching the paper's observation.
    pub fn paper() -> DpConfig {
        DpConfig { max_buckets: 512 }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `max_buckets` is zero or above
    /// `u32::MAX / 2`: the frontier holds bucketed weights as `u32`, and
    /// the sum of two of them must not wrap.
    pub fn validate(&self) -> Result<()> {
        if self.max_buckets == 0 {
            return Err(Error::invalid_config("max_buckets", "must be positive"));
        }
        if self.max_buckets > (u32::MAX / 2) as usize {
            return Err(Error::invalid_config(
                "max_buckets",
                format!("must be at most {}", u32::MAX / 2),
            ));
        }
        Ok(())
    }
}

impl Default for DpConfig {
    fn default() -> Self {
        DpConfig::paper()
    }
}

/// One dominant DP state: `weight` is the exact bucketed weight of its
/// item set, `value` the summed marginal utility. Public so property
/// tests can assert the pruning invariant on [`pareto_frontier`] output.
#[derive(Debug, Clone, Copy, PartialEq)]
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
/// relaxation.
///
/// Items with non-positive value or bucketed weight above `buckets` are
/// skipped. Exposed for the pruning-invariant property tests;
/// [`DpSolver`] is the production entry point.
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
                .take_while(|s| s.weight <= buckets - w_i)
                .map(|s| DpState {
                    weight: s.weight + w_i,
                    value: s.value + v_i,
                }),
        );
        // Two-pointer merge keeping only dominant states. `best` is the
        // running max value over all lighter-or-equal states; the test is
        // strict, so on a value tie the state without item i wins.
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

/// The knapsack-DP solver.
///
/// # Limitations (by design, mirroring the baseline's role in the paper)
///
/// * Requires the separable [`DdlPolicy::MaxArrival`] objective; returns
///   [`Error::InvalidInstance`] under `MaxSelected`.
/// * Ignores `N_min` during optimization; [`repair_n_min`] restores it
///   afterwards.
/// * Weight bucketing makes it inexact unless `Ĉ ≤ max_buckets`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSolver {
    config: DpConfig,
}

impl DpSolver {
    /// Creates a solver with the given bucket budget.
    pub fn new(config: DpConfig) -> DpSolver {
        DpSolver { config }
    }
}

impl Solver for DpSolver {
    fn name(&self) -> &'static str {
        "dp"
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
        // At most `max_buckets`, which `validate` bounds below u32::MAX.
        let buckets = u32::try_from(capacity / granularity)
            .map_err(|_| Error::invalid_config("max_buckets", "too many buckets"))?;

        // Bucketed weights, rounded UP so any DP-feasible selection is also
        // truly feasible. Oversized shards can't be taken anyway; saturate
        // instead of overflowing u32 on pathological tx counts.
        let weights: Vec<u32> = (0..n)
            .map(|i| u32::try_from(instance.size(i).div_ceil(granularity)).unwrap_or(u32::MAX))
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

        let mut by_value: Vec<usize> = (0..n).collect();
        mvcom_types::sort_by_f64_desc(&mut by_value, |&i| values[i]);
        let solution = repair_n_min(instance, solution, &by_value)?;
        let best_utility = instance.utility(&solution);
        Ok(SolverOutcome {
            solver: self.name().to_string(),
            best_solution: solution,
            best_utility,
            trajectory: vec![(0, best_utility)],
        })
    }
}

/// The `N_min` repair of the one-shot solvers (DP and greedy), applied to
/// a capacity-feasible `solution` that may hold fewer than `N_min` shards.
///
/// 1. Top up with the unselected shards that still fit, by marginal
///    utility, descending, until `N_min` are selected.
/// 2. That can wedge — large high-value picks may fill the capacity
///    before the count reaches `N_min`. If it did, restart from the
///    guaranteed-feasible base, the `N_min` smallest shards
///    ([`Instance::smallest`]), and add the positive-marginal shards of
///    `fill` that fit, in `fill` order.
///
/// # Errors
///
/// [`Error::Infeasible`] when not even the restart satisfies `N_min`
/// within the capacity.
pub fn repair_n_min(
    instance: &Instance,
    mut solution: Solution,
    fill: &[usize],
) -> Result<Solution> {
    let fits = |solution: &Solution, i: usize| {
        solution.tx_total() + instance.size(i) <= instance.capacity()
    };
    if solution.selected_count() < instance.n_min() {
        let mut rest: Vec<usize> = solution.iter_unselected().collect();
        mvcom_types::sort_by_f64_desc(&mut rest, |&i| instance.marginal_utility(i));
        for i in rest {
            if solution.selected_count() >= instance.n_min() {
                break;
            }
            if fits(&solution, i) {
                solution.insert(i, instance);
            }
        }
    }
    if !instance.is_feasible(&solution) {
        let smallest = instance.smallest(instance.n_min());
        solution = Solution::from_indices(instance.len(), smallest, instance);
        for &i in fill {
            if !solution.contains(i) && instance.marginal_utility(i) > 0.0 && fits(&solution, i) {
                solution.insert(i, instance);
            }
        }
        if !instance.is_feasible(&solution) {
            return Err(Error::infeasible(
                "the N_min repair could not satisfy N_min within the capacity",
            ));
        }
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_outcome;
    use crate::exhaustive::ExhaustiveSolver;
    use crate::greedy::GreedySolver;
    use crate::test_support::{instance, tiny};
    use mvcom_core::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    /// Shards of the given sizes and latencies, in index order.
    fn shards(specs: &[(u64, f64)]) -> Vec<ShardInfo> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(txs, latency))| {
                ShardInfo::new(
                    CommitteeId(i as u32),
                    txs,
                    TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
                )
            })
            .collect()
    }

    #[test]
    fn produces_feasible_solutions() {
        for seed in 0..4 {
            let inst = instance(30, seed);
            let outcome = DpSolver::default().solve(&inst).unwrap();
            check_outcome(&inst, &outcome).unwrap();
        }
    }

    #[test]
    fn exact_when_capacity_fits_in_buckets() {
        // With granularity 1 and n_min 0, DP must equal the exhaustive
        // optimum exactly.
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
        let dp = DpSolver::new(DpConfig { max_buckets: 500 })
            .solve(&inst)
            .unwrap();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        assert!(
            (dp.best_utility - exact.best_utility).abs() < 1e-6,
            "dp {} vs exact {}",
            dp.best_utility,
            exact.best_utility
        );
    }

    #[test]
    fn bucketing_never_exceeds_the_optimum() {
        let inst = tiny();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        for max_buckets in [8usize, 64, 1024] {
            let dp = DpSolver::new(DpConfig { max_buckets })
                .solve(&inst)
                .unwrap();
            check_outcome(&inst, &dp).unwrap();
            assert!(
                dp.best_utility <= exact.best_utility + 1e-9,
                "buckets={max_buckets}"
            );
        }
    }

    #[test]
    fn coarser_buckets_lose_utility() {
        // Quantization loss is (weakly) monotone in granularity on average;
        // verify the coarse budget does not beat the fine one.
        let inst = instance(40, 5);
        let fine = DpSolver::new(DpConfig { max_buckets: 4096 })
            .solve(&inst)
            .unwrap();
        let coarse = DpSolver::new(DpConfig { max_buckets: 16 })
            .solve(&inst)
            .unwrap();
        assert!(coarse.best_utility <= fine.best_utility + 1e-9);
    }

    #[test]
    fn rejects_max_selected_policy() {
        let inst = InstanceBuilder::new()
            .capacity(1_000)
            .ddl_policy(DdlPolicy::MaxSelected)
            .shards(shards(&[(10, 1.0)]))
            .build()
            .unwrap();
        let err = DpSolver::default().solve(&inst).unwrap_err();
        assert!(err.to_string().contains("MaxArrival"), "{err}");
    }

    #[test]
    fn n_min_repair_kicks_in() {
        // All marginals negative: the relaxation selects nothing; repair
        // must still deliver N_min shards.
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
        let outcome = DpSolver::default().solve(&inst).unwrap();
        assert_eq!(outcome.best_solution.selected_count(), 2);
        check_outcome(&inst, &outcome).unwrap();
    }

    #[test]
    fn a_wedged_top_up_restarts_from_the_smallest_shards() {
        // Shards 0 and 1 are large and pay; 2–4 are small and cost. Both
        // solvers first take 0 and 1 (960 of 1000 TXs), which leaves no
        // room for a third shard: the top-up wedges below N_min = 3. The
        // restart takes the three smallest (300 TXs), then the paying
        // shard that still fits — 1, the more valuable (later arrival, so
        // less age) and the denser.
        let inst = InstanceBuilder::new()
            .alpha(1.0)
            .capacity(1_000)
            .n_min(3)
            .shards(shards(&[
                (480, 900.0),
                (480, 950.0),
                (100, 0.0),
                (100, 10.0),
                (100, 20.0),
            ]))
            .build()
            .unwrap();
        assert!(inst.marginal_utility(1) > inst.marginal_utility(0));
        assert!(inst.marginal_utility(0) > 0.0 && inst.marginal_utility(4) < 0.0);
        let solvers: [&dyn Solver; 2] = [&DpSolver::default(), &GreedySolver::new()];
        for solver in solvers {
            let outcome = solver.solve(&inst).unwrap();
            check_outcome(&inst, &outcome).unwrap();
            assert_eq!(
                outcome.best_solution.iter_selected().collect::<Vec<_>>(),
                [1, 2, 3, 4],
                "{}",
                outcome.solver
            );
        }
    }

    #[test]
    fn bucket_budgets_past_the_frontier_index_are_refused() {
        // Ĉ = 2³² at 2³² buckets used to truncate the bucket count to 0
        // and select nothing, where the optimum takes every shard.
        let inst = InstanceBuilder::new()
            .alpha(2.0)
            .capacity(1 << 32)
            .n_min(0)
            .shards(shards(&[
                (100, 10.0),
                (101, 20.0),
                (102, 30.0),
                (103, 40.0),
                (104, 50.0),
                (105, 60.0),
            ]))
            .build()
            .unwrap();
        let half = (u32::MAX / 2) as usize;
        for max_buckets in [1 << 32, half + 1, usize::MAX] {
            let err = DpSolver::new(DpConfig { max_buckets }).solve(&inst);
            let Err(Error::InvalidConfig { parameter, .. }) = err else {
                panic!("{max_buckets}: {err:?}");
            };
            assert_eq!(parameter, "max_buckets");
        }
        assert!(DpConfig { max_buckets: half }.validate().is_ok());
        let dp = DpSolver::new(DpConfig { max_buckets: 4_096 })
            .solve(&inst)
            .unwrap();
        let exact = ExhaustiveSolver::new().solve(&inst).unwrap();
        assert_eq!(dp.best_solution, exact.best_solution);
        assert_eq!(dp.best_solution.selected_count(), 6);
    }

    #[test]
    fn config_validation() {
        assert!(DpConfig { max_buckets: 0 }.validate().is_err());
        assert!(DpConfig::paper().validate().is_ok());
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
        // Σw = 30 > 20, so pruning actually had to choose.
        let best = frontier.last().unwrap();
        assert!(best.weight <= 20);
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
        let outcome = DpSolver::default().solve(&tiny_inst).unwrap();
        check_outcome(&tiny_inst, &outcome).unwrap();
    }
}
