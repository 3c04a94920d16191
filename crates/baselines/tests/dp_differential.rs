//! Differential testing: the frontier knapsack DP against the dense
//! `|I| × buckets` recurrence it replaced, plus the pruning invariant that
//! makes the frontier trustworthy — it never drops a dominant state.
//!
//! The dense recurrence lives on here as a test-only reference. Solutions
//! may legitimately differ between the two when several selections achieve
//! the optimal value (reconstruction walks different but equal-value
//! paths), so agreement is asserted on utility and feasibility, not on the
//! selection bitset.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_baselines::dp::{pareto_frontier, repair_n_min, DpConfig};
use mvcom_baselines::{check_outcome, DpSolver, Solver, SolverOutcome};
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_core::Solution;
use mvcom_types::{CommitteeId, Error, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;

/// The dense 0/1-knapsack recurrence over the same bucketed weights: one
/// value row, one take/skip row per shard, reconstruction from
/// `dp[buckets]`, then the shared `N_min` repair.
fn dense_dp(inst: &Instance, max_buckets: usize) -> mvcom_types::Result<SolverOutcome> {
    if inst.ddl_policy() != DdlPolicy::MaxArrival {
        return Err(Error::invalid_instance(
            "the DP baseline requires the separable MaxArrival objective",
        ));
    }
    let n = inst.len();
    let granularity = inst.capacity().div_ceil(max_buckets as u64).max(1);
    let buckets = (inst.capacity() / granularity) as usize;
    let weights: Vec<usize> = (0..n)
        .map(|i| inst.size(i).div_ceil(granularity) as usize)
        .collect();
    let mut dp = vec![0.0f64; buckets + 1];
    let mut keep = vec![vec![false; buckets + 1]; n];
    for i in 0..n {
        let value = inst.marginal_utility(i);
        if value <= 0.0 || weights[i] > buckets {
            continue;
        }
        for w in (weights[i]..=buckets).rev() {
            if dp[w - weights[i]] + value > dp[w] {
                dp[w] = dp[w - weights[i]] + value;
                keep[i][w] = true;
            }
        }
    }
    let mut solution = Solution::empty(n);
    let mut w = buckets;
    for i in (0..n).rev() {
        if keep[i][w] {
            solution.insert(i, inst);
            w -= weights[i];
        }
    }
    let mut by_value: Vec<usize> = (0..n).collect();
    mvcom_types::sort_by_f64_desc(&mut by_value, |&i| inst.marginal_utility(i));
    let solution = repair_n_min(inst, solution, &by_value)?;
    let best_utility = inst.utility(&solution);
    Ok(SolverOutcome {
        solver: "dense-dp".to_string(),
        best_solution: solution,
        best_utility,
        trajectory: vec![(0, best_utility)],
    })
}

/// A random instance with |I| ≤ 500:
/// tight-ish capacity so the knapsack actually binds, either deadline
/// policy so the MaxSelected rejection path is exercised too.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        proptest::collection::vec((1u64..3_000, 0u32..400), 2..500),
        1u32..20,
        1u64..40,
        0usize..3,
        prop_oneof![Just(DdlPolicy::MaxArrival), Just(DdlPolicy::MaxSelected)],
    )
        .prop_map(|(shards, alpha_half, cap_pct, n_min_div, policy)| {
            let total: u64 = shards.iter().map(|&(txs, _)| txs).sum();
            let n_min = match n_min_div {
                0 => 0,
                _ => shards.len() / (2 * n_min_div),
            };
            // The builder requires the N_min smallest shards to fit, so
            // floor the capacity there; otherwise 2.5%–100% of the total
            // size, from very tight to slack.
            let mut sizes: Vec<u64> = shards.iter().map(|&(txs, _)| txs).collect();
            sizes.sort_unstable();
            let n_min_floor: u64 = sizes.iter().take(n_min).sum();
            let capacity = (total * cap_pct * 25 / 1000).max(1).max(n_min_floor);
            InstanceBuilder::new()
                .alpha(f64::from(alpha_half) * 0.5)
                .capacity(capacity)
                .n_min(n_min)
                .ddl_policy(policy)
                .shards(
                    shards
                        .iter()
                        .enumerate()
                        .map(|(i, &(txs, lat_step))| {
                            ShardInfo::new(
                                CommitteeId(i as u32),
                                txs,
                                TwoPhaseLatency::from_total(SimTime::from_secs(
                                    f64::from(lat_step) * 2.5,
                                )),
                            )
                        })
                        .collect(),
                )
                .build()
                .expect("generated instances are valid")
        })
}

proptest! {
    /// The frontier and the dense recurrence agree on every instance —
    /// same optimal value (to float-reassociation tolerance), both
    /// feasible, or the *same* rejection/infeasibility verdict.
    #[test]
    fn frontier_and_dense_dp_agree(
        inst in arb_instance(),
        max_buckets in prop_oneof![Just(16usize), Just(128), Just(512), Just(4096)],
    ) {
        let dense = dense_dp(&inst, max_buckets);
        let frontier = DpSolver::new(DpConfig { max_buckets }).solve(&inst);
        match (dense, frontier) {
            (Ok(dense), Ok(frontier)) => {
                check_outcome(&inst, &dense).unwrap();
                check_outcome(&inst, &frontier).unwrap();
                let tol = 1e-9 * (1.0 + dense.best_utility.abs());
                prop_assert!(
                    (dense.best_utility - frontier.best_utility).abs() < tol,
                    "dense {} vs frontier {}", dense.best_utility, frontier.best_utility
                );
            }
            (Err(dense), Err(frontier)) => {
                // Same failure class: MaxSelected rejection or repair
                // infeasibility — never one succeeding where the other
                // fails.
                prop_assert_eq!(dense.to_string(), frontier.to_string());
            }
            (dense, frontier) => {
                return Err(TestCaseError::fail(format!(
                    "solvers disagree on solvability: dense {dense:?} vs frontier {frontier:?}"
                )));
            }
        }
    }

    /// Pruning invariant: the frontier is strictly increasing in weight
    /// and value (no dominated state kept), and every achievable state of
    /// the exhaustive subset enumeration is dominated by some frontier
    /// state (no dominant state ever dropped).
    #[test]
    fn pruning_never_drops_a_dominant_state(
        items in proptest::collection::vec((0u32..12, -5.0f64..25.0), 1..12),
        buckets in 1u32..40,
    ) {
        let weights: Vec<u32> = items.iter().map(|&(w, _)| w).collect();
        let values: Vec<f64> = items.iter().map(|&(_, v)| v).collect();
        let frontier = pareto_frontier(&weights, &values, buckets);
        for pair in frontier.windows(2) {
            prop_assert!(pair[0].weight < pair[1].weight, "{:?}", frontier);
            prop_assert!(pair[0].value < pair[1].value, "{:?}", frontier);
        }
        // Exhaustive ground truth over all subsets of the DP-eligible
        // items (the solver skips non-positive values and over-budget
        // weights by construction).
        let eligible: Vec<(u32, f64)> = items
            .iter()
            .copied()
            .filter(|&(w, v)| v > 0.0 && w <= buckets)
            .collect();
        for mask in 0u32..(1 << eligible.len()) {
            let (mut w, mut v) = (0u64, 0.0f64);
            for (bit, &(wi, vi)) in eligible.iter().enumerate() {
                if mask >> bit & 1 == 1 {
                    w += u64::from(wi);
                    v += vi;
                }
            }
            if w > u64::from(buckets) {
                continue;
            }
            let dominated = frontier
                .iter()
                .any(|s| u64::from(s.weight) <= w && s.value >= v - 1e-9 * (1.0 + v.abs()));
            prop_assert!(
                dominated,
                "achievable state (w={w}, v={v}) not dominated by any frontier state: {frontier:?}"
            );
        }
    }
}
