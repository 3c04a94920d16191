//! Property-based tests of the scheduler stack (proptest).
//!
//! Case counts are tiered so tier-1 `cargo test -q` stays fast: properties
//! that run whole solver stacks (SE engine, exhaustive enumeration) default
//! to a handful of cases, cheap algebraic properties to more. Set the
//! `PROPTEST_CASES` environment variable to override both tiers — the
//! dedicated CI job runs the full historical count (24+) that way.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::baselines::{check_outcome, sa::SaConfig, woa::WoaConfig};
use mvcom::prelude::*;
use proptest::prelude::*;

/// The per-block case count: `PROPTEST_CASES` if set, else `default`.
fn cases(default: u32) -> ProptestConfig {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default);
    ProptestConfig::with_cases(n)
}

/// Strategy: a random feasible MVCom instance.
fn arb_instance() -> impl Strategy<Value = Instance> {
    // 6..=24 shards, sizes 50..=2000, latencies 10..=5000 s.
    arb_instance_sized(6, 24)
}

/// Strategy: a random feasible instance small enough to enumerate
/// exhaustively (2^n subsets) without dominating tier-1 wall time.
fn arb_enumerable_instance() -> impl Strategy<Value = Instance> {
    arb_instance_sized(6, 14)
}

fn arb_instance_sized(min: usize, max: usize) -> impl Strategy<Value = Instance> {
    (min..=max)
        .prop_flat_map(|n| {
            (
                proptest::collection::vec((50u64..=2_000, 10.0f64..=5_000.0), n..=n),
                1.0f64..=10.0,
                0usize..=3,
            )
        })
        .prop_map(|(raw, alpha, n_min)| {
            let shards: Vec<ShardInfo> = raw
                .iter()
                .enumerate()
                .map(|(i, &(txs, lat))| {
                    ShardInfo::new(
                        CommitteeId(i as u32),
                        txs,
                        TwoPhaseLatency::from_total(SimTime::from_secs(lat)),
                    )
                })
                .collect();
            // Capacity: between the n_min smallest and the full total, so
            // the instance is feasible but the knapsack can bind.
            let total: u64 = shards.iter().map(|s| s.tx_count()).sum();
            let capacity = (total / 2).max(shards.iter().map(|s| s.tx_count()).max().unwrap() * 2);
            InstanceBuilder::new()
                .alpha(alpha)
                .capacity(capacity)
                .n_min(n_min)
                .shards(shards)
                .build()
                .expect("constructed to be feasible")
        })
}

// Heavy tier: each case runs one or more full solver stacks (SE races,
// exhaustive 2^n enumeration), so the tier-1 default is small.
proptest! {
    #![proptest_config(cases(6))]

    #[test]
    fn se_always_returns_feasible_solutions(instance in arb_instance(), seed in 0u64..1_000) {
        let outcome = SeEngine::new(&instance, SeConfig::fast_test(seed))
            .expect("engine builds on feasible instances")
            .run();
        prop_assert!(instance.is_feasible(&outcome.best_solution));
        let recomputed = instance.utility(&outcome.best_solution);
        prop_assert!((recomputed - outcome.best_utility).abs() < 1e-6 * (1.0 + recomputed.abs()));
    }

    #[test]
    fn se_is_never_beaten_by_greedy_with_margin(instance in arb_instance(), seed in 0u64..100) {
        let se = SeEngine::new(&instance, SeConfig::paper(seed).with_max_iterations(600))
            .unwrap()
            .run();
        let greedy = GreedySolver::new().solve(&instance).unwrap();
        // SE explores greedy-reachable space and beyond; allow a hair of
        // stochastic slack.
        let slack = 0.02 * greedy.best_utility.abs().max(1.0);
        prop_assert!(
            se.best_utility >= greedy.best_utility - slack,
            "SE {} vs greedy {}", se.best_utility, greedy.best_utility
        );
    }

    #[test]
    fn exhaustive_dominates_every_heuristic(instance in arb_enumerable_instance(), seed in 0u64..50) {
        let exact = ExhaustiveSolver::new().solve(&instance).unwrap();
        let se = SeEngine::new(&instance, SeConfig::fast_test(seed)).unwrap().run();
        prop_assert!(se.best_utility <= exact.best_utility + 1e-6);
        let roster: [Box<dyn Solver>; 4] = [
            Box::new(GreedySolver::new()),
            Box::new(DpSolver::default()),
            Box::new(SaSolver::new(SaConfig::paper(seed))),
            Box::new(WoaSolver::new(WoaConfig::paper(seed))),
        ];
        for solver in roster {
            let outcome = solver.solve(&instance).unwrap();
            let checked = check_outcome(&instance, &outcome);
            prop_assert!(checked.is_ok(), "{checked:?}");
            prop_assert!(
                outcome.best_utility <= exact.best_utility + 1e-6,
                "{} {} above the optimum {}", outcome.solver, outcome.best_utility, exact.best_utility
            );
        }
    }

    #[test]
    fn leave_then_solve_stays_feasible(instance in arb_instance(), seed in 0u64..100) {
        let victim = instance.shards()[0].committee();
        let (trimmed, _) = match instance.without_committee(victim) {
            Ok(t) => t,
            Err(_) => return Ok(()), // trimming made it infeasible: fine
        };
        let outcome = SeEngine::new(&trimmed, SeConfig::fast_test(seed)).unwrap().run();
        prop_assert!(trimmed.is_feasible(&outcome.best_solution));
        prop_assert!(trimmed.index_of(victim).is_none());
    }
}

// Cheap tier: algebraic identities over instance/solution state — no solver
// runs, so these afford a larger default.
proptest! {
    #![proptest_config(cases(32))]

    #[test]
    fn utility_is_sum_of_selected_marginals(instance in arb_instance()) {
        // MaxArrival separability: U(f) = Σ marginal(i) over selected i.
        let n = instance.len();
        let solution = Solution::from_indices(n, (0..n).step_by(2), &instance);
        let expected: f64 = solution.iter_selected().map(|i| instance.marginal_utility(i)).sum();
        prop_assert!((instance.utility(&solution) - expected).abs() < 1e-9);
    }

    #[test]
    fn swap_deltas_commute_with_reevaluation(instance in arb_instance(), seed in 0u64..100) {
        let mut rng = mvcom::simnet::rng::master(seed);
        let n = instance.len();
        let mut solution = Solution::from_indices(n, 0..n / 2, &instance);
        let mut utility = instance.utility(&solution);
        for _ in 0..20 {
            let Some(out) = solution.random_selected(&mut rng) else { break };
            let Some(inc) = solution.random_unselected(&mut rng) else { break };
            utility += instance.swap_delta(&solution, out, inc);
            solution.swap(out, inc, &instance);
        }
        prop_assert!((utility - instance.utility(&solution)).abs() < 1e-6);
    }

    #[test]
    fn cumulative_age_is_nonnegative_and_zero_for_ddl_shard(instance in arb_instance()) {
        let n = instance.len();
        let full = Solution::from_indices(n, 0..n, &instance);
        prop_assert!(instance.cumulative_age(&full) >= 0.0);
        // The shard defining the DDL has zero age.
        let ddl_shard = (0..n)
            .max_by(|&a, &b| {
                instance.shards()[a]
                    .two_phase_latency()
                    .cmp(&instance.shards()[b].two_phase_latency())
            })
            .unwrap();
        prop_assert!(instance.age(ddl_shard).abs() < 1e-9);
    }
}

#[test]
fn se_matches_exhaustive_on_small_instances() {
    // Deterministic (non-proptest) convergence check with a real budget.
    for seed in [1u64, 7, 23] {
        let trace = Trace::generate(TraceConfig::tiny(100), seed);
        let mut gen = EpochGenerator::new(&trace, LatencyConfig::paper(), seed);
        let shards = gen.next_epoch_with_replacement(12, 1).unwrap();
        let instance = InstanceBuilder::new()
            .alpha(2.0)
            .capacity(9_000)
            .n_min(3)
            .shards(shards)
            .build()
            .unwrap();
        let exact = ExhaustiveSolver::new().solve(&instance).unwrap();
        let se = SeEngine::new(&instance, SeConfig::paper(seed).with_max_iterations(1_500))
            .unwrap()
            .run();
        assert!(
            se.best_utility >= exact.best_utility - 1e-6 * exact.best_utility.abs().max(1.0),
            "seed {seed}: SE {} below optimum {}",
            se.best_utility,
            exact.best_utility
        );
    }
}
