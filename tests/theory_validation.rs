//! Validating the paper's analytical results against the implementation.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom::core::theory;
use mvcom::prelude::*;

fn small_instance(alpha: f64) -> Instance {
    let shards: Vec<ShardInfo> = [
        (100u64, 950.0f64),
        (140, 800.0),
        (90, 990.0),
        (120, 700.0),
        (110, 1000.0),
        (95, 850.0),
        (130, 600.0),
    ]
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
    InstanceBuilder::new()
        .alpha(alpha)
        .capacity(100_000)
        .n_min(1)
        .shards(shards)
        .build()
        .unwrap()
}

#[test]
fn stationary_distribution_matches_eq_6_empirically() {
    // Long CTMC run over a cardinality slice: time-averaged occupancy must
    // approach p* ∝ exp(βU) (eq. (6)).
    let instance = small_instance(1.0);
    let beta = 0.015;
    let states = theory::enumerate_states(&instance, 3).unwrap();
    let p_star = theory::stationary_distribution(&instance, beta, &states);
    let mut rng = mvcom::simnet::rng::master(123);
    let mut sim = theory::CtmcSimulator::new(&instance, beta, states[0].clone());
    let occupancy = sim.occupancy(80_000, &mut rng);
    let total: f64 = occupancy.values().sum();
    let empirical: Vec<f64> = states
        .iter()
        .map(|s| {
            let key: Vec<usize> = s.iter_selected().collect();
            occupancy.get(&key).copied().unwrap_or(0.0) / total
        })
        .collect();
    let d = theory::tv_distance(&empirical, &p_star);
    assert!(d < 0.06, "TV distance to the eq.(6) stationary law: {d}");
}

#[test]
fn sharper_beta_concentrates_on_better_solutions() {
    // Remark 1/2 tradeoff: larger β shrinks the approximation loss, so the
    // stationary mass of the top state grows.
    let instance = small_instance(1.0);
    let states = theory::enumerate_states(&instance, 3).unwrap();
    let best = states
        .iter()
        .enumerate()
        .max_by(|a, b| instance.utility(a.1).total_cmp(&instance.utility(b.1)))
        .unwrap()
        .0;
    let p_soft = theory::stationary_distribution(&instance, 0.001, &states);
    let p_sharp = theory::stationary_distribution(&instance, 0.05, &states);
    assert!(p_sharp[best] > p_soft[best]);
    assert!(
        theory::approximation_loss(0.05, instance.len())
            < theory::approximation_loss(0.001, instance.len())
    );
}

#[test]
fn mixing_time_bounds_bracket_observed_convergence() {
    // Not a tight check (the bounds are loose by design); verify the
    // implementation orders them correctly and both respond to ε.
    let instance = small_instance(1.0);
    let states = theory::enumerate_states(&instance, 3).unwrap();
    let utilities: Vec<f64> = states.iter().map(|s| instance.utility(s)).collect();
    let u_max = utilities.iter().copied().fold(f64::MIN, f64::max);
    let u_min = utilities.iter().copied().fold(f64::MAX, f64::min);
    let beta = 0.01;
    let lower = theory::mixing_time_lower(0.05, instance.len(), u_max, u_min, beta);
    let upper = theory::mixing_time_upper(0.05, instance.len(), u_max, u_min, beta);
    assert!(lower > 0.0 && upper > lower);
    // ln-forms stay finite at paper scale where the plain forms overflow.
    assert!(theory::ln_mixing_time_upper(0.01, 1000, 1e6, -1e6, 2.0).is_finite());
}

#[test]
fn failure_perturbation_obeys_theorem_2_exactly_on_enumerable_instances() {
    // Theorem 2: ‖q*uᵀ − q̃uᵀ‖ ≤ max_g U_g. Compute both sides exactly.
    let instance = small_instance(1.0);
    let beta = 0.01;
    let cardinality = 3;
    let states = theory::enumerate_states(&instance, cardinality).unwrap();
    let p_star = theory::stationary_distribution(&instance, beta, &states);
    for failed in 0..instance.len() {
        let survivors: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.contains(failed))
            .map(|(i, _)| i)
            .collect();
        if survivors.is_empty() {
            continue;
        }
        let trimmed: Vec<_> = survivors.iter().map(|&i| states[i].clone()).collect();
        let q_star = theory::stationary_distribution(&instance, beta, &trimmed);
        let utilities: Vec<f64> = trimmed.iter().map(|s| instance.utility(s)).collect();
        // q̃ = original distribution restricted to survivors (eq. (16)).
        let q_tilde: Vec<f64> = survivors.iter().map(|&i| p_star[i]).collect();
        let lhs: f64 = q_star
            .iter()
            .zip(&q_tilde)
            .zip(&utilities)
            .map(|((a, b), u)| (a - b) * u)
            .sum::<f64>()
            .abs();
        let bound = utilities.iter().copied().fold(f64::MIN, f64::max).abs();
        assert!(
            lhs <= bound + 1e-9,
            "failed={failed}: perturbation {lhs} exceeds Theorem 2 bound {bound}"
        );
    }
}

#[test]
fn trimmed_tv_distance_approaches_half_as_beta_vanishes() {
    let instance = small_instance(1.0);
    // Cardinality 3 of 7 shards: fraction of states containing any fixed
    // shard is C(6,2)/C(7,3) = 15/35 ≈ 0.43.
    let d = theory::trimmed_tv_distance(&instance, 1e-9, 3, 0).unwrap();
    assert!((d - 15.0 / 35.0).abs() < 1e-6, "d = {d}");
    assert!(d <= theory::failure_tv_bound());
}

#[test]
fn knapsack_reduction_equivalence_on_solved_instances() {
    // Solve a knapsack optimally by DP over the reduced MVCom instance and
    // compare against a hand-computed optimum — the §III-C reduction is
    // value-preserving.
    let values = [60.0, 100.0, 120.0, 75.0];
    let weights = [10u64, 20, 30, 15];
    let capacity = 50;
    let instance =
        mvcom::core::problem::knapsack_reduction(&values, &weights, capacity, 1.0).unwrap();
    let exact = ExhaustiveSolver::new().solve(&instance).unwrap();
    // Optimum of this knapsack: items {1, 2} → 220 (vs {0,1,3}=235 w=45).
    // Check exhaustively in plain arithmetic:
    let mut best = 0.0f64;
    for mask in 0u32..16 {
        let w: u64 = (0..4)
            .filter(|&i| mask >> i & 1 == 1)
            .map(|i| weights[i])
            .sum();
        if w <= capacity {
            let v: f64 = (0..4)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| values[i])
                .sum();
            best = best.max(v);
        }
    }
    assert!(
        (exact.best_utility - best).abs() < 1e-6,
        "reduced optimum {} vs knapsack optimum {best}",
        exact.best_utility
    );
}
