//! Executable forms of the paper's analytical results.
//!
//! * [`approximation_loss`] — the log-sum-exp optimality gap
//!   `(1/β)·log|F|` of Remark 1.
//! * [`mixing_time_lower`] / [`mixing_time_upper`] — the Theorem 1 bounds
//!   on `t_mix(ε)` (plus `ln_`-variants that cannot overflow).
//! * [`failure_tv_bound`] — Lemma 4's `d_TV(q*, q̃) ≤ ½`, checked exactly
//!   on enumerable instances by [`trimmed_tv_distance`].
//! * [`perturbation_bound`] — Theorem 2's `‖q*uᵀ − q̃uᵀ‖ ≤ max_g U_g`.
//! * [`CtmcSimulator`] — an *exact* continuous-time realization of the
//!   designed Markov chain over one cardinality slice of the solution
//!   space, used to verify empirically that the time-averaged occupancy
//!   converges to the stationary distribution `p*_f ∝ exp(β·U_f)` of
//!   eq. (6).
//!
//! Every result here takes eq. (7)'s conditional constant τ as `0`, its
//! value in all of the paper's experiments and in the SE engine.

use std::collections::BTreeMap;

use rand::Rng;

use mvcom_types::{Error, Result};

use crate::problem::Instance;
use crate::solution::Solution;

/// Remark 1: solving the log-sum-exp approximation MVCom(β) instead of
/// MVCom loses at most `(1/β)·log|F| = n·ln2/β` utility.
///
/// # Panics
///
/// Panics if `beta` is not positive.
pub fn approximation_loss(beta: f64, n: usize) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    (n as f64) * std::f64::consts::LN_2 / beta
}

/// Theorem 1 lower bound on the mixing time:
///
/// ```text
/// t_mix(ε) ≥ exp[−½β(U_max − U_min)] / (|I|² − |I|) · ln(1/(2ε))
/// ```
pub fn mixing_time_lower(epsilon: f64, n: usize, u_max: f64, u_min: f64, beta: f64) -> f64 {
    ln_mixing_time_lower(epsilon, n, u_max, u_min, beta).exp()
}

/// `ln` of [`mixing_time_lower`] — usable when the bound itself overflows.
pub fn ln_mixing_time_lower(epsilon: f64, n: usize, u_max: f64, u_min: f64, beta: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 0.5, "need 0 < ε < ½");
    assert!(n >= 2, "need at least two shards");
    let spread = u_max - u_min;
    // ε < ½ guarantees ln(1/(2ε)) > 0, so its own ln below is finite.
    -0.5 * beta * spread - ((n * n - n) as f64).ln() + (1.0 / (2.0 * epsilon)).ln().ln()
}

/// Theorem 1 upper bound on the mixing time:
///
/// ```text
/// t_mix(ε) ≤ 4|I|(|I|² − |I|) · exp[(3/2)β(U_max − U_min)]
///            · [ln(1/(2ε)) + ½|I|·ln2 + ½β(U_max − U_min)]
/// ```
pub fn mixing_time_upper(epsilon: f64, n: usize, u_max: f64, u_min: f64, beta: f64) -> f64 {
    ln_mixing_time_upper(epsilon, n, u_max, u_min, beta).exp()
}

/// `ln` of [`mixing_time_upper`]. With β·(U_max − U_min) routinely in the
/// thousands, the plain bound exceeds `f64::MAX`; the log form stays exact.
pub fn ln_mixing_time_upper(epsilon: f64, n: usize, u_max: f64, u_min: f64, beta: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon < 0.5, "need 0 < ε < ½");
    assert!(n >= 2, "need at least two shards");
    let spread = u_max - u_min;
    let poly = (4 * n * (n * n - n)) as f64;
    let bracket = (1.0 / (2.0 * epsilon)).ln()
        + 0.5 * (n as f64) * std::f64::consts::LN_2
        + 0.5 * beta * spread;
    poly.ln() + 1.5 * beta * spread + bracket.ln()
}

/// Lemma 4: when one committee fails, the total-variation distance between
/// the trimmed stationary distribution `q*` and the instantaneous
/// distribution `q̃` is at most ½.
pub const fn failure_tv_bound() -> f64 {
    0.5
}

/// Theorem 2: the utility perturbation caused by a single committee
/// failure is bounded by the utility of the best solution in the trimmed
/// space, `max_{g∈G} U_g`.
pub fn perturbation_bound(best_trimmed_utility: f64) -> f64 {
    best_trimmed_utility
}

/// Enumerates every capacity-feasible solution with exactly `cardinality`
/// admitted shards — one slice of the Markov chain's state space.
///
/// # Errors
///
/// [`Error::InvalidInstance`] when the instance has more than 26 shards
/// (the enumeration would exceed 2²⁶ states).
pub fn enumerate_states(instance: &Instance, cardinality: usize) -> Result<Vec<Solution>> {
    let n = instance.len();
    if n > 26 {
        return Err(Error::invalid_instance(format!(
            "exhaustive enumeration capped at 26 shards, got {n}"
        )));
    }
    let mut states = Vec::new();
    for mask in 0u64..(1 << n) {
        if mask.count_ones() as usize != cardinality {
            continue;
        }
        let sol = Solution::from_indices(n, (0..n).filter(|&i| mask >> i & 1 == 1), instance);
        if instance.within_capacity(&sol) {
            states.push(sol);
        }
    }
    Ok(states)
}

/// The exact stationary distribution of eq. (6) over the given states:
/// `p*_f = exp(β·U_f) / Σ_{f'} exp(β·U_{f'})`, evaluated with the
/// log-sum-exp trick so large `β·U` cannot overflow.
pub fn stationary_distribution(instance: &Instance, beta: f64, states: &[Solution]) -> Vec<f64> {
    assert!(!states.is_empty(), "need at least one state");
    let log_weights: Vec<f64> = states.iter().map(|s| beta * instance.utility(s)).collect();
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let unnorm: Vec<f64> = log_weights.iter().map(|&w| (w - max).exp()).collect();
    let z: f64 = unnorm.iter().sum();
    unnorm.into_iter().map(|w| w / z).collect()
}

/// Total-variation distance `½·Σ|p_i − q_i|` between two distributions
/// over the same support.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn tv_distance(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distributions over different supports");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

/// Computes the *exact* Lemma 4 quantity for an enumerable instance: the
/// TV distance between the trimmed-space stationary distribution `q*` and
/// the instantaneous distribution `q̃` (the original distribution restricted
/// to surviving states) at the moment shard `failed_idx` fails.
///
/// Lemma 4's `≤ ½` bound is **asymptotic**: its proof models the utilities
/// as i.i.d. and invokes the law of large numbers, under which
/// `d_TV → |F∖G|/|F| = ½`. The exact quantity computed here approaches ½
/// as `β → 0` (all states near-equiprobable) but can exceed ½ for sharply
/// concentrated distributions whose probability mass sits on states that
/// contain the failed shard — a boundary-condition effect the tests pin
/// down explicitly.
///
/// # Errors
///
/// Propagates the enumeration cap.
pub fn trimmed_tv_distance(
    instance: &Instance,
    beta: f64,
    cardinality: usize,
    failed_idx: usize,
) -> Result<f64> {
    let states = enumerate_states(instance, cardinality)?;
    let p_star = stationary_distribution(instance, beta, &states);
    // Survivors: states not containing the failed shard.
    let survivors: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.contains(failed_idx))
        .map(|(i, _)| i)
        .collect();
    if survivors.is_empty() {
        return Err(Error::invalid_instance(
            "every state contains the failed shard; trimmed space is empty",
        ));
    }
    // q̃: the original stationary distribution restricted to survivors —
    // the paper's eq. (16) (survivor mass not renormalized over G only;
    // the residual mass sat on removed states).
    let survivor_mass: f64 = survivors.iter().map(|&i| p_star[i]).sum();
    let q_tilde: Vec<f64> = survivors.iter().map(|&i| p_star[i]).collect();
    // q*: the trimmed stationary distribution, eq. (15).
    let trimmed_states: Vec<Solution> = survivors.iter().map(|&i| states[i].clone()).collect();
    let q_star = stationary_distribution(instance, beta, &trimmed_states);
    // d_TV treats q̃ as a sub-distribution; the deficit is the mass the
    // failed states held, matching the paper's derivation.
    let core: f64 = q_star
        .iter()
        .zip(&q_tilde)
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>();
    Ok(0.5 * (core + (1.0 - survivor_mass)))
}

/// Builds the exact transition-rate matrix `Q` of the designed Markov
/// chain over the given states: for adjacent states (one admitted/excluded
/// pair swapped), `q_{f,f'} = exp(½β(U_{f'} − U_f))` (paper eq. (10));
/// diagonals make rows sum to zero. Rates use a utility shift so `exp`
/// stays finite for moderate `β·ΔU`.
///
/// # Panics
///
/// Panics if `states` is empty.
pub fn transition_rate_matrix(
    instance: &Instance,
    beta: f64,
    states: &[Solution],
) -> Vec<Vec<f64>> {
    assert!(!states.is_empty(), "need at least one state");
    let n = states.len();
    let utilities: Vec<f64> = states.iter().map(|s| instance.utility(s)).collect();
    let mut q = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i == j || states[i].distance(&states[j]) != 2 {
                continue;
            }
            q[i][j] = (0.5 * beta * (utilities[j] - utilities[i])).exp();
        }
        let row_sum: f64 = q[i].iter().sum();
        q[i][i] = -row_sum;
    }
    q
}

/// Estimates the spectral gap `λ₂` of the chain (the smallest non-zero
/// eigenvalue of `−Q`) via deflated power iteration on the
/// `π`-symmetrized generator. The relaxation time is `1/λ₂`, and the
/// standard sandwich `(t_rel − 1)·ln(1/2ε) ≤ t_mix ≤ t_rel·ln(1/(ε·π_min))`
/// connects it to the Theorem 1 bounds (validated in the tests).
///
/// # Panics
///
/// Panics if `states` has fewer than two elements.
pub fn spectral_gap(instance: &Instance, beta: f64, states: &[Solution]) -> f64 {
    assert!(states.len() >= 2, "spectral gap needs at least two states");
    let n = states.len();
    let q = transition_rate_matrix(instance, beta, states);
    let pi = stationary_distribution(instance, beta, states);
    // Symmetrize: S = D^{1/2} Q D^{-1/2}, reversibility makes S symmetric
    // with the same (real, non-positive) spectrum as Q.
    let mut s = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            s[i][j] = (pi[i] / pi[j].max(1e-300)).sqrt() * q[i][j];
        }
    }
    // Shift to make the dominant eigenvalue the one we can power-iterate:
    // B = S + c·I with c ≥ max |S_ii| has top eigenvalue c (eigenvector
    // √π); the second eigenvalue is c − λ₂.
    let c = s
        .iter()
        .enumerate()
        .map(|(i, row)| row[i].abs())
        .fold(0.0f64, f64::max)
        + 1.0;
    let sqrt_pi: Vec<f64> = pi.iter().map(|p| p.sqrt()).collect();
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    let mut v: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 17) as f64 - 8.0).collect();
    for _ in 0..2_000 {
        // Deflate the known top eigenvector.
        let dot: f64 = v.iter().zip(&sqrt_pi).map(|(a, b)| a * b).sum();
        let pi_norm2: f64 = sqrt_pi.iter().map(|x| x * x).sum();
        for (vi, pi_i) in v.iter_mut().zip(&sqrt_pi) {
            *vi -= dot / pi_norm2 * pi_i;
        }
        // Multiply by B = S + c·I.
        let mut next = vec![0.0; n];
        for (i, next_i) in next.iter_mut().enumerate() {
            *next_i = c * v[i] + s[i].iter().zip(&v).map(|(a, b)| a * b).sum::<f64>();
        }
        let m = norm(&next);
        if m < 1e-300 {
            return 0.0; // degenerate: the slice is a single communicating pair
        }
        for x in &mut next {
            *x /= m;
        }
        v = next;
    }
    // Rayleigh quotient for the deflated dominant eigenvalue of B.
    let mut bv = vec![0.0; n];
    for (i, bv_i) in bv.iter_mut().enumerate() {
        *bv_i = c * v[i] + s[i].iter().zip(&v).map(|(a, b)| a * b).sum::<f64>();
    }
    let rayleigh: f64 =
        v.iter().zip(&bv).map(|(a, b)| a * b).sum::<f64>() / v.iter().map(|x| x * x).sum::<f64>();
    (c - rayleigh).max(0.0)
}

/// An exact continuous-time realization of the designed Markov chain over
/// one cardinality slice: from state `f`, every neighbor `f'` (one
/// admitted/excluded pair swapped, capacity-feasible) carries rate
/// `q_{f,f'} = exp(½β(U_{f'} − U_f))` (paper eq. (10)); the jump
/// target is drawn ∝ rate and the holding time is `Exp(Σ rates)`.
///
/// Time-averaged occupancy converges to eq. (6)'s `p*` — the property the
/// SE implementation approximates with its timer race.
#[derive(Debug)]
pub struct CtmcSimulator<'a> {
    instance: &'a Instance,
    beta: f64,
    state: Solution,
}

impl<'a> CtmcSimulator<'a> {
    /// Starts the chain from `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates the capacity constraint.
    pub fn new(instance: &'a Instance, beta: f64, initial: Solution) -> CtmcSimulator<'a> {
        assert!(
            instance.within_capacity(&initial),
            "initial state violates capacity"
        );
        CtmcSimulator {
            instance,
            beta,
            state: initial,
        }
    }

    /// The current state.
    pub fn state(&self) -> &Solution {
        &self.state
    }

    /// Runs `jumps` transitions, returning time-weighted state occupancy
    /// keyed by the selected-index set.
    pub fn occupancy<R: Rng + ?Sized>(
        &mut self,
        jumps: usize,
        rng: &mut R,
    ) -> BTreeMap<Vec<usize>, f64> {
        let mut occupancy: BTreeMap<Vec<usize>, f64> = BTreeMap::new();
        for _ in 0..jumps {
            let neighbors = self.feasible_neighbors();
            if neighbors.is_empty() {
                break;
            }
            // Rates in a numerically safe form: shift by the max exponent.
            let exponents: Vec<f64> = neighbors
                .iter()
                .map(|&(out, inc)| {
                    0.5 * self.beta * self.instance.swap_delta(&self.state, out, inc)
                })
                .collect();
            let max_e = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = exponents.iter().map(|&e| (e - max_e).exp()).collect();
            let total_w: f64 = weights.iter().sum();
            // Holding time Exp(Σ rates); Σ rates = e^{max_e}·Σ weights.
            // Work with the log to stay finite, clamping pathological cases.
            let ln_total_rate = max_e + total_w.ln();
            let exp1: f64 = -rng.gen_range(f64::MIN_POSITIVE..1.0_f64).ln();
            let ln_hold = exp1.ln() - ln_total_rate;
            let hold = ln_hold.exp().clamp(1e-300, 1e300);
            let key: Vec<usize> = self.state.iter_selected().collect();
            *occupancy.entry(key).or_insert(0.0) += hold;

            // Jump ∝ rate.
            let mut pick = rng.gen_range(0.0..total_w);
            let mut chosen = neighbors.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                if pick < w {
                    chosen = i;
                    break;
                }
                pick -= w;
            }
            let (out, inc) = neighbors[chosen];
            self.state.swap(out, inc, self.instance);
        }
        occupancy
    }

    fn feasible_neighbors(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in self.state.iter_selected() {
            for j in self.state.iter_unselected() {
                let new_total = self.state.tx_total() - self.instance.shards()[i].tx_count()
                    + self.instance.shards()[j].tx_count();
                if new_total <= self.instance.capacity() {
                    out.push((i, j));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn small_instance() -> Instance {
        InstanceBuilder::new()
            .alpha(1.0)
            .capacity(10_000)
            .n_min(1)
            .shards(vec![
                shard(0, 100, 950.0),
                shard(1, 140, 800.0),
                shard(2, 90, 990.0),
                shard(3, 120, 700.0),
                shard(4, 110, 1000.0),
                shard(5, 95, 850.0),
            ])
            .build()
            .unwrap()
    }

    #[test]
    fn approximation_loss_shrinks_with_beta() {
        let a = approximation_loss(1.0, 50);
        let b = approximation_loss(10.0, 50);
        assert!((a - 50.0 * std::f64::consts::LN_2).abs() < 1e-12);
        assert!((b - a / 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "beta must be positive")]
    fn approximation_loss_rejects_bad_beta() {
        approximation_loss(0.0, 10);
    }

    #[test]
    fn mixing_bounds_are_ordered_and_monotone() {
        let (n, umax, umin, beta) = (10usize, 30.0, 0.0, 0.1);
        let lower = mixing_time_lower(0.01, n, umax, umin, beta);
        let upper = mixing_time_upper(0.01, n, umax, umin, beta);
        assert!(lower > 0.0);
        assert!(upper > lower, "upper {upper} <= lower {lower}");
        // Tighter ε demands more mixing time on both sides.
        assert!(mixing_time_upper(0.001, n, umax, umin, beta) > upper);
        assert!(mixing_time_lower(0.001, n, umax, umin, beta) > lower);
        // Larger β slows the upper bound (Remark 2).
        assert!(mixing_time_upper(0.01, n, umax, umin, 1.0) > upper);
    }

    #[test]
    fn ln_bounds_match_plain_bounds_when_finite() {
        let (n, umax, umin, beta) = (8usize, 12.0, 2.0, 0.5);
        let plain = mixing_time_upper(0.05, n, umax, umin, beta);
        let ln = ln_mixing_time_upper(0.05, n, umax, umin, beta);
        assert!((plain.ln() - ln).abs() < 1e-9);
        let plain_l = mixing_time_lower(0.05, n, umax, umin, beta);
        let ln_l = ln_mixing_time_lower(0.05, n, umax, umin, beta);
        assert!((plain_l.ln() - ln_l).abs() < 1e-9);
    }

    #[test]
    fn ln_bound_survives_paper_scale_utilities() {
        // β(Umax−Umin) ~ 2·10⁶ would overflow exp(); the ln form must not.
        let ln = ln_mixing_time_upper(0.01, 500, 1.0e6, 0.0, 2.0);
        assert!(ln.is_finite());
        assert!(mixing_time_upper(0.01, 500, 1.0e6, 0.0, 2.0).is_infinite());
    }

    #[test]
    fn enumerate_states_counts_subsets() {
        let inst = small_instance();
        // Capacity is loose: all C(6,2)=15 two-subsets are feasible.
        let states = enumerate_states(&inst, 2).unwrap();
        assert_eq!(states.len(), 15);
        for s in &states {
            assert_eq!(s.selected_count(), 2);
        }
    }

    #[test]
    fn enumerate_states_respects_capacity() {
        let inst = InstanceBuilder::new()
            .capacity(220)
            .shards(vec![
                shard(0, 100, 1.0),
                shard(1, 110, 2.0),
                shard(2, 130, 3.0),
            ])
            .build()
            .unwrap();
        // Pairs: {0,1}=210 ok, {0,2}=230 no, {1,2}=240 no.
        let states = enumerate_states(&inst, 2).unwrap();
        assert_eq!(states.len(), 1);
    }

    #[test]
    fn enumeration_cap_enforced() {
        let inst = InstanceBuilder::new()
            .capacity(u64::MAX / 2)
            .shards((0..30).map(|i| shard(i, 1, 1.0 + f64::from(i))).collect())
            .build()
            .unwrap();
        assert!(enumerate_states(&inst, 2).is_err());
    }

    #[test]
    fn stationary_distribution_sums_to_one_and_ranks_by_utility() {
        let inst = small_instance();
        let states = enumerate_states(&inst, 3).unwrap();
        let p = stationary_distribution(&inst, 0.05, &states);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Higher utility ⇒ higher probability.
        let best = mvcom_types::max_by_f64(states.iter().enumerate(), |(_, s)| inst.utility(s))
            .unwrap()
            .0;
        assert!(p
            .iter()
            .enumerate()
            .all(|(i, &pi)| pi <= p[best] + 1e-12 || i == best));
    }

    #[test]
    fn tv_distance_basics() {
        assert_eq!(tv_distance(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((tv_distance(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lemma4_bound_holds_in_the_lln_regime() {
        // The Lemma 4 proof works in the law-of-large-numbers regime where
        // exp(β·U_f) is flat across states; β → 0 realizes it exactly, and
        // d_TV → |F∖G|/|F|. Over the cardinality-3 slice of 6 shards the
        // failed shard sits in C(5,2)/C(6,3) = ½ of the states.
        let inst = small_instance();
        for failed in 0..inst.len() {
            let d = trimmed_tv_distance(&inst, 1e-9, 3, failed).unwrap();
            assert!(
                (d - failure_tv_bound()).abs() < 1e-6,
                "TV distance {d} should approach ½ for failed shard {failed}"
            );
        }
    }

    #[test]
    fn lemma4_bound_can_break_under_concentration() {
        // Documented boundary condition: with a concentrated distribution
        // (large β) whose mass sits on states containing the failed shard,
        // the exact perturbation exceeds the asymptotic ½ bound. Shard 4
        // defines the deadline (zero age) and has the highest marginal
        // utility, so the β=0.05 stationary mass concentrates on states
        // containing it.
        let inst = small_instance();
        let d = trimmed_tv_distance(&inst, 0.05, 3, 4).unwrap();
        assert!(
            d > failure_tv_bound(),
            "expected concentration to exceed the asymptotic bound, got {d}"
        );
        assert!(d <= 1.0 + 1e-9);
    }

    #[test]
    fn transition_matrix_is_a_generator_and_satisfies_detailed_balance() {
        let inst = small_instance();
        let beta = 0.01;
        let states = enumerate_states(&inst, 3).unwrap();
        let q = transition_rate_matrix(&inst, beta, &states);
        let pi = stationary_distribution(&inst, beta, &states);
        for (i, row) in q.iter().enumerate() {
            // Rows sum to zero; off-diagonals non-negative.
            assert!(row.iter().sum::<f64>().abs() < 1e-9);
            for (j, &rate) in row.iter().enumerate() {
                if i != j {
                    assert!(rate >= 0.0);
                    // Lemma 3: π_i q_ij == π_j q_ji.
                    assert!(
                        (pi[i] * rate - pi[j] * q[j][i]).abs() < 1e-12,
                        "detailed balance violated at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn spectral_gap_is_positive_and_beta_slows_mixing() {
        let inst = small_instance();
        let states = enumerate_states(&inst, 3).unwrap();
        let gap_soft = spectral_gap(&inst, 0.001, &states);
        let gap_sharp = spectral_gap(&inst, 0.02, &states);
        assert!(gap_soft > 0.0);
        assert!(gap_sharp > 0.0);
        // Remark 2: larger β concentrates the chain and slows mixing, so
        // the relaxation time 1/gap grows.
        assert!(
            gap_sharp < gap_soft,
            "gap should shrink with β: {gap_soft} → {gap_sharp}"
        );
    }

    #[test]
    fn theorem_1_bounds_bracket_the_spectral_relaxation_time() {
        // Sandwich: (t_rel − 1)·ln(1/2ε) ≤ t_mix ≤ t_rel·ln(1/(ε·π_min)).
        // Theorem 1's bounds must not contradict the spectral estimate:
        // lower(ε) ≤ t_rel·ln(1/(ε·π_min)) and upper(ε) ≥ (t_rel−1)·ln(1/2ε).
        let inst = small_instance();
        let beta = 0.005;
        let epsilon = 0.05;
        let states = enumerate_states(&inst, 3).unwrap();
        let utilities: Vec<f64> = states.iter().map(|s| inst.utility(s)).collect();
        let u_max = utilities.iter().copied().fold(f64::MIN, f64::max);
        let u_min = utilities.iter().copied().fold(f64::MAX, f64::min);
        let pi = stationary_distribution(&inst, beta, &states);
        let pi_min = pi.iter().copied().fold(f64::MAX, f64::min);
        let t_rel = 1.0 / spectral_gap(&inst, beta, &states);
        let spectral_upper = t_rel * (1.0 / (epsilon * pi_min)).ln();
        let spectral_lower = (t_rel - 1.0).max(0.0) * (1.0 / (2.0 * epsilon)).ln();
        let thm_lower = mixing_time_lower(epsilon, inst.len(), u_max, u_min, beta);
        let thm_upper = mixing_time_upper(epsilon, inst.len(), u_max, u_min, beta);
        assert!(
            thm_lower <= spectral_upper,
            "Theorem 1 lower bound {thm_lower} exceeds the spectral upper bound {spectral_upper}"
        );
        assert!(
            thm_upper >= spectral_lower,
            "Theorem 1 upper bound {thm_upper} below the spectral lower bound {spectral_lower}"
        );
    }

    #[test]
    fn ctmc_occupancy_converges_to_stationary() {
        // Use a small β so the chain mixes quickly, then compare
        // time-weighted occupancy against eq. (6).
        let inst = small_instance();
        let beta = 0.02;
        let states = enumerate_states(&inst, 2).unwrap();
        let p_star = stationary_distribution(&inst, beta, &states);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let initial = states[0].clone();
        let mut sim = CtmcSimulator::new(&inst, beta, initial);
        let occupancy = sim.occupancy(60_000, &mut rng);
        let total: f64 = occupancy.values().sum();
        let empirical: Vec<f64> = states
            .iter()
            .map(|s| {
                let key: Vec<usize> = s.iter_selected().collect();
                occupancy.get(&key).copied().unwrap_or(0.0) / total
            })
            .collect();
        let d = tv_distance(&empirical, &p_star);
        assert!(d < 0.08, "empirical TV distance {d} too large");
    }

    #[test]
    fn perturbation_bound_is_identity_on_best_trimmed() {
        assert_eq!(perturbation_bound(123.0), 123.0);
    }
}
