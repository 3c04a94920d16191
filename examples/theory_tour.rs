//! A tour of the paper's theory, executed.
//!
//! ```text
//! cargo run --release --example theory_tour
//! ```
//!
//! Walks through the analytical results of §IV–§V on a small, enumerable
//! instance: the log-sum-exp approximation gap (Remark 1), the stationary
//! distribution of eq. (6) validated against an exact CTMC simulation, the
//! Theorem 1 mixing-time bounds, and the Lemma 4 / Theorem 2 failure
//! perturbation — then shows the SE engine hitting the exhaustive optimum.

#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message if its premise fails"
)]
use mvcom::core::theory;
use mvcom::prelude::*;

fn main() -> Result<()> {
    // A 7-shard epoch, small enough to enumerate exactly.
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
    let instance = InstanceBuilder::new()
        .alpha(1.0)
        .capacity(100_000)
        .n_min(1)
        .shards(shards)
        .build()?;

    println!("== Remark 1: the log-sum-exp approximation gap (1/β)·log|F| ==");
    for beta in [0.5, 2.0, 10.0] {
        println!(
            "  β = {beta:>4}: loss ≤ {:.2} utility units over |F| = 2^{}",
            theory::approximation_loss(beta, instance.len()),
            instance.len()
        );
    }

    println!("\n== eq. (6): stationary distribution vs exact CTMC occupancy ==");
    let beta = 0.015;
    let states = theory::enumerate_states(&instance, 3)?;
    let p_star = theory::stationary_distribution(&instance, beta, &states);
    let mut rng = mvcom::simnet::rng::master(7);
    let mut sim = theory::CtmcSimulator::new(&instance, beta, states[0].clone());
    let occupancy = sim.occupancy(50_000, &mut rng);
    let total: f64 = occupancy.values().sum();
    let empirical: Vec<f64> = states
        .iter()
        .map(|s| {
            let key: Vec<usize> = s.iter_selected().collect();
            occupancy.get(&key).copied().unwrap_or(0.0) / total
        })
        .collect();
    println!(
        "  {} states of cardinality 3; TV(empirical, p*) = {:.4} after 50k jumps",
        states.len(),
        theory::tv_distance(&empirical, &p_star)
    );
    let best = states
        .iter()
        .enumerate()
        .max_by(|a, b| instance.utility(a.1).total_cmp(&instance.utility(b.1)))
        .map(|(i, _)| i)
        .expect("states");
    println!(
        "  best state holds {:.1}% stationary mass (β = {beta})",
        100.0 * p_star[best]
    );

    println!("\n== Theorem 1: mixing-time bounds ==");
    let utilities: Vec<f64> = states.iter().map(|s| instance.utility(s)).collect();
    let u_max = utilities.iter().copied().fold(f64::MIN, f64::max);
    let u_min = utilities.iter().copied().fold(f64::MAX, f64::min);
    for epsilon in [0.1, 0.01] {
        println!(
            "  ε = {epsilon}: {:.3} ≤ t_mix ≤ {:.1}",
            theory::mixing_time_lower(epsilon, instance.len(), u_max, u_min, beta),
            theory::mixing_time_upper(epsilon, instance.len(), u_max, u_min, beta),
        );
    }
    println!(
        "  at paper scale (|I|=500, β=2, ΔU≈10⁶) the upper bound is only\n\
         \x20 representable in log form: ln t_mix ≤ {:.3e}",
        theory::ln_mixing_time_upper(0.01, 500, 1.0e6, 0.0, 2.0)
    );

    println!("\n== Lemma 4 / Theorem 2: committee failure ==");
    for failed in [0usize, 4] {
        let d = theory::trimmed_tv_distance(&instance, 1e-9, 3, failed)?;
        println!(
            "  shard {failed} fails (β→0): d_TV(q*, q̃) = {:.4} (Lemma 4 bound: {:.1})",
            d,
            theory::failure_tv_bound()
        );
    }
    let d_sharp = theory::trimmed_tv_distance(&instance, 0.05, 3, 4)?;
    println!(
        "  concentrated regime (β = 0.05, best shard fails): d_TV = {d_sharp:.4} — \n\
         \x20 the ½ bound is asymptotic (law of large numbers); see DESIGN.md"
    );

    println!("\n== SE vs the exhaustive optimum ==");
    let exact = ExhaustiveSolver::new().solve(&instance)?;
    let se = SeEngine::new(&instance, SeConfig::paper(7))?.run();
    println!(
        "  exhaustive: {:.2}  |  SE: {:.2} after {} iterations (converged = {})",
        exact.best_utility, se.best_utility, se.iterations, se.converged
    );
    Ok(())
}
