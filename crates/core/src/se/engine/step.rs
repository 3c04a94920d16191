//! One round of Algorithm 1: every chain of every replica races, commits
//! and is accounted for in one (replica, chain) loop.

use mvcom_obs::{ObsLevel, Value};

use super::SeEngine;

/// Minimum improvement of the best-so-far utility that counts as progress
/// (and restarts the convergence window).
const CONVERGENCE_TOL: f64 = 1e-9;

impl SeEngine {
    /// Runs one iteration (one *round* of the concurrently running
    /// solution threads): every chain of every replica races the timers of
    /// `proposal_fanout` sampled swap pairs and commits the winner — a
    /// sampled jump of the designed CTMC — then all timers are RESET for
    /// the next round.
    ///
    /// The paper's solution threads execute in parallel (Fig. 5), so in
    /// real time each thread's local timer expires about once between two
    /// RESET broadcasts; firing every chain once per round is the
    /// virtual-time image of that concurrency (DESIGN.md §14). The round
    /// is one loop in (replica, chain) order: each chain races on its
    /// replica's RNG stream, applies its winner, and is then accounted for
    /// — Trace-level `se_propose`/`se_commit`, best-so-far tracking and
    /// the virtual-time fold — before the next chain races.
    pub fn step(&mut self) {
        self.iteration += 1;
        let trace = self.obs.enabled(ObsLevel::Trace);
        let mut min_ln_timer = f64::INFINITY;
        let mut improved: Option<(usize, usize)> = None;
        for (r_idx, replica) in self.replicas.iter_mut().enumerate() {
            for (c_idx, chain) in replica.chains.iter_mut().enumerate() {
                let Some(proposal) = chain.race(&self.instance, &self.config, &mut replica.rng)
                else {
                    continue;
                };
                chain.apply(&proposal, &self.instance);
                let utility = chain.utility();
                if trace {
                    self.obs.emit(
                        "se_propose",
                        self.vtime,
                        &[
                            ("replica", Value::from(r_idx)),
                            ("chain", Value::from(c_idx)),
                            ("iter", Value::U64(self.iteration)),
                            ("out", Value::from(proposal.out)),
                            ("inc", Value::from(proposal.inc)),
                            ("delta", Value::F64(proposal.delta)),
                            ("ln_timer", Value::F64(proposal.ln_timer)),
                        ],
                    );
                    self.obs.emit(
                        "se_commit",
                        self.vtime,
                        &[
                            ("replica", Value::from(r_idx)),
                            ("chain", Value::from(c_idx)),
                            ("iter", Value::U64(self.iteration)),
                            ("utility", Value::F64(utility)),
                        ],
                    );
                }
                if utility > self.best_utility + CONVERGENCE_TOL {
                    self.best_utility = utility;
                    improved = Some((r_idx, c_idx));
                    self.last_improvement = self.iteration;
                }
                min_ln_timer = min_ln_timer.min(proposal.ln_timer);
            }
        }
        if let Some((r_idx, c_idx)) = improved {
            self.best_solution = self.replicas[r_idx].chains[c_idx].solution().clone();
            self.obs.emit(
                "se_improve",
                self.vtime,
                &[
                    ("iter", Value::U64(self.iteration)),
                    ("utility", Value::F64(self.best_utility)),
                ],
            );
            self.obs.incr("se.improvements");
        }
        // `exp` and the clamp are monotone non-decreasing, so taking the
        // min in log space and exponentiating once is bit-identical to the
        // old per-proposal `exp(…).clamp(…)` fold. The finiteness guard
        // must run on the *log* value: a commit-free round leaves
        // `min_ln_timer` at +∞ and the virtual clock untouched, whereas
        // `exp(∞).clamp(0, 1e12)` would be a finite 1e12.
        if min_ln_timer.is_finite() {
            self.vtime += min_ln_timer.exp().clamp(0.0, 1e12);
        }
        if self.iteration.is_multiple_of(self.config.record_every) {
            self.record_point();
        }
        if self.iteration.is_multiple_of(self.chain_sample_every()) {
            self.emit_chain_points();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::se::config::SeConfig;
    use crate::se::engine::tests::instance;

    #[test]
    fn trajectory_best_so_far_is_monotone() {
        let inst = instance(30);
        let outcome = SeEngine::new(&inst, SeConfig::fast_test(2)).unwrap().run();
        let pts = outcome.trajectory.points();
        assert!(pts.len() > 2);
        for w in pts.windows(2) {
            assert!(w[1].best_so_far >= w[0].best_so_far - 1e-9);
            assert!(w[1].iteration >= w[0].iteration);
            assert!(w[1].vtime >= w[0].vtime);
        }
    }

    #[test]
    fn utility_improves_over_initialization() {
        let inst = instance(40);
        let engine = SeEngine::new(&inst, SeConfig::paper(3).with_max_iterations(1500)).unwrap();
        let initial = engine.current_best_utility();
        let outcome = engine.run();
        assert!(
            outcome.best_utility >= initial,
            "best {} < initial {initial}",
            outcome.best_utility
        );
    }

    #[test]
    fn larger_gamma_does_not_hurt() {
        // Fig. 8 shape: more replicas converge at least as well for a fixed
        // (small) iteration budget.
        let inst = instance(40);
        let budget = 120;
        let u1 = SeEngine::new(
            &inst,
            SeConfig::paper(6).with_gamma(1).with_max_iterations(budget),
        )
        .unwrap()
        .run()
        .best_utility;
        let u10 = SeEngine::new(
            &inst,
            SeConfig::paper(6)
                .with_gamma(10)
                .with_max_iterations(budget),
        )
        .unwrap()
        .run()
        .best_utility;
        assert!(u10 >= u1 - 1e-9, "gamma=10 {u10} < gamma=1 {u1}");
    }
}
