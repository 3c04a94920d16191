//! The virtual-time Stochastic-Exploration engine (Algorithm 1).
//!
//! [`SeEngine`] lives here with its accessors, `run`/`finish` and the
//! telemetry helpers; construction, the round, join/leave and
//! checkpoint/restore are the four submodules (DESIGN.md §14).

mod build;
mod dynamics;
mod restore;
mod step;

use serde::{Deserialize, Serialize};

use mvcom_obs::{Obs, ObsLevel, Value};

use crate::problem::Instance;
use crate::se::chain::Chain;
use crate::se::config::SeConfig;
use crate::solution::Solution;

/// One sampled point of the convergence trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPoint {
    /// Iteration (timer races per replica) at which the point was taken.
    pub iteration: u64,
    /// Accumulated virtual time of the fastest replica's timer races.
    pub vtime: f64,
    /// Best utility among the *current* chain states — this is the curve
    /// the paper plots; it can drop when a committee leaves.
    pub current_best: f64,
    /// Best feasible utility observed since the run began.
    pub best_so_far: f64,
}

/// The recorded convergence trajectory of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    points: Vec<TrajectoryPoint>,
}

impl Trajectory {
    /// The sampled points in iteration order.
    pub fn points(&self) -> &[TrajectoryPoint] {
        &self.points
    }

    /// The final recorded point, if any.
    pub fn last(&self) -> Option<&TrajectoryPoint> {
        self.points.last()
    }
}

/// The result of a completed run.
#[derive(Debug, Clone, PartialEq)]
pub struct SeOutcome {
    /// The best feasible solution found (Alg. 1 line 26).
    pub best_solution: Solution,
    /// Its utility.
    pub best_utility: f64,
    /// Iterations actually executed.
    pub iterations: u64,
    /// Whether the convergence window triggered before the budget ran out.
    pub converged: bool,
    /// The recorded utility trajectory.
    pub trajectory: Trajectory,
}

/// One of the Γ independent replicas of the solution family.
#[derive(Debug, Clone)]
struct Replica {
    chains: Vec<Chain>,
    rng: mvcom_simnet::SimRng,
}

/// The Stochastic-Exploration scheduler (paper Algorithm 1).
///
/// See the [module docs](crate::se) for the mapping onto the paper. The
/// engine owns a copy of the instance because dynamic events (committee
/// join/leave) mutate the epoch mid-run.
///
/// # Example
///
/// ```
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_core::se::{SeConfig, SeEngine};
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// # fn main() -> Result<(), mvcom_types::Error> {
/// let shards = (0..12).map(|i| ShardInfo::new(
///     CommitteeId(i),
///     500 + 100 * u64::from(i % 4),
///     TwoPhaseLatency::from_total(SimTime::from_secs(600.0 + 25.0 * f64::from(i))),
/// )).collect();
/// let instance = InstanceBuilder::new()
///     .alpha(2.0).capacity(5_000).n_min(3).shards(shards).build()?;
/// let outcome = SeEngine::new(&instance, SeConfig::fast_test(42))?.run();
/// assert!(instance.is_feasible(&outcome.best_solution));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SeEngine {
    instance: Instance,
    config: SeConfig,
    replicas: Vec<Replica>,
    iteration: u64,
    vtime: f64,
    best_solution: Solution,
    best_utility: f64,
    last_improvement: u64,
    trajectory: Trajectory,
    restored_chains: usize,
    obs: Obs,
}

impl SeEngine {
    /// Attaches a telemetry handle: emits `se_init` immediately (plus
    /// `se_checkpoint_restore` for an engine rebuilt by
    /// [`SeEngine::from_checkpoint`]) and a `se_chain_point` for every
    /// chain, then streams trajectory, improvement, dynamics and
    /// checkpoint events from subsequent calls. All timestamps are the
    /// engine's virtual time.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> SeEngine {
        self.obs = obs;
        if self.restored_chains > 0 {
            self.obs.emit(
                "se_checkpoint_restore",
                self.vtime,
                &[
                    ("version", Value::U64(self.iteration)),
                    ("iter", Value::U64(self.iteration)),
                    ("chains", Value::from(self.restored_chains)),
                ],
            );
        }
        self.emit_init();
        self.emit_chain_points();
        self
    }

    /// Returns the engine unchanged: [`SeEngine::step`] runs every round
    /// as one loop on the caller's thread, and a build takes its worker
    /// count from the host (a large one runs its replicas on every
    /// available core, the same bytes at any count), so there is nothing
    /// to set. The method stays because `benchmark/` calls this signature.
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> SeEngine {
        self
    }

    /// The engine's current view of the epoch (changes on dynamic events).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The active configuration.
    pub fn config(&self) -> &SeConfig {
        &self.config
    }

    /// Iterations executed so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Best utility among the *current* chain states across all replicas
    /// (the paper's plotted quantity), or the best static fallback when no
    /// chains exist.
    pub fn current_best_utility(&self) -> f64 {
        let over_chains = self
            .chains()
            .map(Chain::utility)
            .fold(f64::NEG_INFINITY, f64::max);
        if over_chains.is_finite() {
            over_chains
        } else {
            self.best_utility
        }
    }

    /// Snapshot of `(cardinality, utility)` for every chain of every
    /// replica — used by tests and the ablation benchmarks.
    pub fn chain_utilities(&self) -> Vec<(usize, f64)> {
        self.chains()
            .map(|c| (c.cardinality(), c.utility()))
            .collect()
    }

    /// Every chain of every replica, in (replica, chain) order.
    fn chains(&self) -> impl Iterator<Item = &Chain> {
        self.replicas.iter().flat_map(|r| r.chains.iter())
    }

    /// Chains rebuilt from a checkpoint by [`SeEngine::from_checkpoint`]
    /// over this engine's lifetime (0 for a fresh engine).
    pub fn restored_chains(&self) -> usize {
        self.restored_chains
    }

    /// `true` once the convergence window has elapsed without improvement.
    pub fn is_converged(&self) -> bool {
        self.config.convergence_window > 0
            && self.iteration >= self.last_improvement + self.config.convergence_window
    }

    /// Up to `n` more rounds, stopping early once converged.
    pub fn advance(&mut self, n: u64) {
        for _ in 0..n {
            if self.is_converged() {
                break;
            }
            self.step();
        }
    }

    /// Runs until convergence or the iteration budget, then finalizes per
    /// Alg. 1 lines 22–27 (including the full selection `f_{|I_j|}` when it
    /// fits in `Ĉ`).
    pub fn run(mut self) -> SeOutcome {
        self.advance(self.config.max_iterations.saturating_sub(self.iteration));
        self.finish()
    }

    /// Finalizes without running further iterations.
    pub fn finish(self) -> SeOutcome {
        self.settle().1
    }

    /// [`SeEngine::finish`], also handing back the epoch the outcome's
    /// solution indexes into.
    pub(crate) fn settle(mut self) -> (Instance, SeOutcome) {
        self.consider_full();
        self.record_point();
        self.obs.emit(
            "se_converged",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("best", Value::F64(self.best_utility)),
                ("converged", Value::Bool(self.is_converged())),
            ],
        );
        self.obs.set_gauge("se.best_utility", self.best_utility);
        let outcome = SeOutcome {
            converged: self.is_converged(),
            iterations: self.iteration,
            best_solution: self.best_solution,
            best_utility: self.best_utility,
            trajectory: self.trajectory,
        };
        (self.instance, outcome)
    }

    /// Alg. 1 line 25: the full selection `f_{|I_j|}` joins the candidate
    /// set when it is feasible.
    fn consider_full(&mut self) {
        let full = Solution::full(&self.instance);
        if self.instance.is_feasible(&full) {
            let u = self.instance.utility(&full);
            if u > self.best_utility {
                self.best_utility = u;
                self.best_solution = full;
            }
        }
    }

    fn record_point(&mut self) {
        let current = self.current_best_utility();
        self.obs.emit(
            "se_point",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("current_best", Value::F64(current)),
                ("best_so_far", Value::F64(self.best_utility)),
            ],
        );
        self.trajectory.points.push(TrajectoryPoint {
            iteration: self.iteration,
            vtime: self.vtime,
            current_best: current,
            best_so_far: self.best_utility,
        });
    }

    fn emit_init(&self) {
        if !self.obs.enabled(ObsLevel::Events) {
            return;
        }
        let range = build::cardinality_range(&self.instance);
        self.obs.emit(
            "se_init",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("gamma", Value::from(self.config.gamma)),
                ("chains", Value::from(self.chains().count())),
                ("card_lo", Value::from(*range.start())),
                ("card_hi", Value::from(*range.end())),
                ("instance_len", Value::from(self.instance.len())),
            ],
        );
    }

    /// Rounds between two `se_chain_point` samples: 50 samples per budget,
    /// never zero (plus one unconditional sample when obs is attached).
    fn chain_sample_every(&self) -> u64 {
        (self.config.max_iterations / 50).max(1)
    }

    fn emit_chain_points(&self) {
        if !self.obs.enabled(ObsLevel::Events) {
            return;
        }
        for (g, replica) in self.replicas.iter().enumerate() {
            for (c, chain) in replica.chains.iter().enumerate() {
                self.obs.emit(
                    "se_chain_point",
                    self.vtime,
                    &[
                        ("replica", Value::from(g)),
                        ("chain", Value::from(c)),
                        ("card", Value::from(chain.cardinality())),
                        ("iter", Value::U64(self.iteration)),
                        ("utility", Value::F64(chain.utility())),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};

    pub(super) fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    pub(super) fn instance(n: usize) -> Instance {
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity((n as u64) * 120)
            .n_min(n / 3)
            .shards(
                (0..n)
                    .map(|i| {
                        shard(
                            i as u32,
                            80 + (i as u64 * 13) % 90,
                            400.0 + ((i as f64 * 71.0) % 500.0),
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn run_returns_feasible_solution() {
        let inst = instance(30);
        let outcome = SeEngine::new(&inst, SeConfig::fast_test(1)).unwrap().run();
        assert!(inst.is_feasible(&outcome.best_solution));
        assert!((inst.utility(&outcome.best_solution) - outcome.best_utility).abs() < 1e-6);
        assert!(outcome.iterations > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = instance(25);
        let a = SeEngine::new(&inst, SeConfig::fast_test(9)).unwrap().run();
        let b = SeEngine::new(&inst, SeConfig::fast_test(9)).unwrap().run();
        assert_eq!(a.best_utility, b.best_utility);
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let inst = instance(25);
        let a = SeEngine::new(&inst, SeConfig::fast_test(10)).unwrap().run();
        let b = SeEngine::new(&inst, SeConfig::fast_test(11)).unwrap().run();
        // Final utilities may tie, but the trajectories must differ.
        assert_ne!(a.trajectory, b.trajectory);
    }

    #[test]
    fn convergence_window_triggers() {
        let inst = instance(15);
        let cfg = SeConfig {
            max_iterations: 100_000,
            convergence_window: 50,
            ..SeConfig::fast_test(4)
        };
        let outcome = SeEngine::new(&inst, cfg).unwrap().run();
        assert!(outcome.converged);
        assert!(outcome.iterations < 100_000);
    }

    #[test]
    fn respects_iteration_budget() {
        let inst = instance(15);
        let cfg = SeConfig {
            max_iterations: 37,
            convergence_window: 0,
            ..SeConfig::fast_test(5)
        };
        let outcome = SeEngine::new(&inst, cfg).unwrap().run();
        assert_eq!(outcome.iterations, 37);
        assert!(!outcome.converged);
    }

    #[test]
    fn full_solution_considered_when_feasible() {
        // Capacity fits everything; n_min equals len so the chain range is
        // empty and the answer must be the full selection.
        let shards: Vec<ShardInfo> = (0..5).map(|i| shard(i, 10, 100.0 + f64::from(i))).collect();
        let inst = InstanceBuilder::new()
            .alpha(5.0)
            .capacity(1_000)
            .n_min(5)
            .shards(shards)
            .build()
            .unwrap();
        let outcome = SeEngine::new(&inst, SeConfig::fast_test(15)).unwrap().run();
        assert_eq!(outcome.best_solution.selected_count(), 5);
        assert!((outcome.best_utility - inst.utility(&Solution::full(&inst))).abs() < 1e-9);
    }

    #[test]
    fn finds_optimum_on_tiny_instance() {
        // 6 shards, exhaustively checkable: SE must land on the optimum.
        let shards = vec![
            shard(0, 100, 900.0),
            shard(1, 120, 800.0),
            shard(2, 80, 990.0),
            shard(3, 60, 400.0),
            shard(4, 90, 950.0),
            shard(5, 110, 700.0),
        ];
        let inst = InstanceBuilder::new()
            .alpha(2.0)
            .capacity(300)
            .n_min(1)
            .shards(shards)
            .build()
            .unwrap();
        // Exhaustive optimum.
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..64 {
            let sol = Solution::from_indices(6, (0..6).filter(|&i| mask >> i & 1 == 1), &inst);
            if inst.is_feasible(&sol) {
                best = best.max(inst.utility(&sol));
            }
        }
        let cfg = SeConfig {
            gamma: 4,
            max_iterations: 2_000,
            convergence_window: 400,
            ..SeConfig::paper(16)
        };
        let outcome = SeEngine::new(&inst, cfg).unwrap().run();
        assert!(
            (outcome.best_utility - best).abs() < 1e-6,
            "SE {} vs optimum {best}",
            outcome.best_utility
        );
    }
}
