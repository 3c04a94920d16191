//! Differential testing: the sparse (dominant-state) knapsack DP against
//! the dense-table DP it replaces at scale, plus the pruning invariant
//! that makes the sparse solver trustworthy — the Pareto frontier never
//! drops a dominant state.
//!
//! Solutions may legitimately differ between the two solvers when several
//! selections achieve the optimal value (reconstruction walks different
//! but equal-value paths), so agreement is asserted on utility and
//! feasibility, not on the selection bitset.

#![expect(
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_baselines::dp::DpConfig;
use mvcom_baselines::sparse_dp::{pareto_frontier, SparseDpSolver};
use mvcom_baselines::{check_outcome, DpSolver, Solver};
use mvcom_core::problem::{DdlPolicy, Instance, InstanceBuilder};
use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
use proptest::prelude::*;

/// A random instance at the satellite's |I| ≤ 500 differential scale:
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
    /// Sparse and dense DP agree on every instance — same optimal value
    /// (to float-reassociation tolerance), both feasible, or the *same*
    /// rejection/infeasibility verdict.
    #[test]
    fn sparse_and_dense_dp_agree(
        inst in arb_instance(),
        max_buckets in prop_oneof![Just(16usize), Just(128), Just(512), Just(4096)],
    ) {
        let config = DpConfig { max_buckets };
        let dense = DpSolver::new(config).solve(&inst);
        let sparse = SparseDpSolver::new(config).solve(&inst);
        match (dense, sparse) {
            (Ok(dense), Ok(sparse)) => {
                check_outcome(&inst, &dense).unwrap();
                check_outcome(&inst, &sparse).unwrap();
                let tol = 1e-9 * (1.0 + dense.best_utility.abs());
                prop_assert!(
                    (dense.best_utility - sparse.best_utility).abs() < tol,
                    "dense {} vs sparse {}", dense.best_utility, sparse.best_utility
                );
            }
            (Err(dense), Err(sparse)) => {
                // Same failure class: MaxSelected rejection or repair
                // infeasibility — never one succeeding where the other
                // fails.
                prop_assert_eq!(dense.to_string(), sparse.to_string());
            }
            (dense, sparse) => {
                return Err(TestCaseError::fail(format!(
                    "solvers disagree on solvability: dense {dense:?} vs sparse {sparse:?}"
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
