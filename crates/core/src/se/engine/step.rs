//! One round of Algorithm 1: the (possibly parallel) replica race and the
//! serial merge that replays its commits.

use mvcom_obs::{ObsLevel, Value};
use mvcom_simnet::ordered_map;

use super::{Replica, SeEngine};
use crate::problem::Instance;
use crate::se::chain::Proposal;
use crate::se::config::SeConfig;

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
    /// virtual-time image of that concurrency.
    ///
    /// Internally the round runs in two phases (DESIGN.md §14): a
    /// (possibly parallel, see [`SeEngine::with_threads`]) *race* phase
    /// where every replica races and commits its chains using only
    /// replica-local state, and a serial *merge* phase that replays the
    /// commits in (replica, chain) order — telemetry, best-tracking, and
    /// the virtual-time fold all happen here, so the observable output is
    /// byte-identical to the single-loop formulation at any thread count.
    pub fn step(&mut self) {
        self.iteration += 1;
        let commits = self.race_replicas();
        let trace = self.obs.enabled(ObsLevel::Trace);
        let mut min_ln_timer = f64::INFINITY;
        let mut improved: Option<(usize, usize)> = None;
        for (r_idx, replica_commits) in commits.iter().enumerate() {
            for commit in replica_commits {
                let proposal = &commit.proposal;
                if trace {
                    self.obs.emit(
                        "se_propose",
                        self.vtime,
                        &[
                            ("replica", Value::from(r_idx)),
                            ("chain", Value::from(commit.chain)),
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
                            ("chain", Value::from(commit.chain)),
                            ("iter", Value::U64(self.iteration)),
                            ("utility", Value::F64(commit.utility)),
                        ],
                    );
                }
                if commit.utility > self.best_utility + CONVERGENCE_TOL {
                    self.best_utility = commit.utility;
                    improved = Some((r_idx, commit.chain));
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

    /// Phase 1 of [`SeEngine::step`]: every chain of every replica races
    /// its timers and commits the winning proposal, one replica per item
    /// of [`ordered_map`] across [`SeEngine::with_threads`] workers.
    /// [`race_replica`] touches only its replica — never telemetry or
    /// engine-level state — and the commits come back in replica order,
    /// so the merge phase observes identical commit sequences at any
    /// thread count.
    fn race_replicas(&mut self) -> Vec<Vec<ChainCommit>> {
        ordered_map(
            self.threads,
            self.replicas.iter_mut().collect(),
            |replica| race_replica(replica, &self.instance, &self.config),
        )
    }
}

/// One committed proposal from the race phase of [`SeEngine::step`]:
/// which chain won, the winning proposal, and the chain's utility after
/// the commit was applied. Collected per replica in chain order so the
/// serial merge replays exactly the single-loop sequence.
#[derive(Debug, Clone, Copy)]
struct ChainCommit {
    chain: usize,
    proposal: Proposal,
    utility: f64,
}

/// Races and commits every chain of one replica. Touches only
/// replica-local state (the replica's chains and its own RNG stream) —
/// no telemetry, no engine fields — which is what makes the fan-out in
/// [`SeEngine::step`] safe to run from [`ordered_map`] workers.
fn race_replica(replica: &mut Replica, instance: &Instance, config: &SeConfig) -> Vec<ChainCommit> {
    let mut commits = Vec::new();
    for c_idx in 0..replica.chains.len() {
        let Some(proposal) = replica.chains[c_idx].race(instance, config, &mut replica.rng) else {
            continue;
        };
        replica.chains[c_idx].apply(&proposal, instance);
        commits.push(ChainCommit {
            chain: c_idx,
            proposal,
            utility: replica.chains[c_idx].utility(),
        });
    }
    commits
}

#[cfg(test)]
mod tests {
    use super::*;
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
