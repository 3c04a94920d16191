//! The virtual-time Stochastic-Exploration engine (Algorithm 1).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use mvcom_obs::{Obs, ObsLevel, Value};
use mvcom_simnet::ordered_map;
use mvcom_types::{Error, Result, ShardInfo};

use crate::dynamics::DynamicsPolicy;
use crate::eval::ShardColumns;
use crate::problem::Instance;
use crate::se::chain::{Chain, Proposal};
use crate::se::checkpoint::{ChainSnapshot, SeCheckpoint};
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

    fn push(&mut self, point: TrajectoryPoint) {
        self.points.push(point);
    }
}

/// The result of a completed run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Worker count for the replica fan-out in [`SeEngine::step`]. An
    /// *execution* knob like [`SeEngine::with_obs`] — deliberately not a
    /// [`SeConfig`] field, so it can never leak into config serialization,
    /// checkpoint identity, or daemon history headers. Output is
    /// byte-identical at any value.
    threads: usize,
}

impl SeEngine {
    /// Builds the engine: validates the configuration, derives the feasible
    /// cardinality range `[max(1, N_min), min(|I|−1, n_cap)]`, and runs
    /// Algorithm 2 to initialize every chain of every replica.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, and [`Error::Infeasible`] when not
    /// a single feasible solution exists (also checked by the instance
    /// builder, so this is defensive).
    pub fn new(instance: &Instance, config: SeConfig) -> Result<SeEngine> {
        config.validate()?;
        let mut engine = SeEngine {
            instance: instance.clone(),
            config,
            replicas: Vec::new(),
            iteration: 0,
            vtime: 0.0,
            best_solution: Solution::empty(instance.len()),
            best_utility: f64::NEG_INFINITY,
            last_improvement: 0,
            trajectory: Trajectory::default(),
            restored_chains: 0,
            obs: Obs::off(),
            threads: 1,
        };
        engine.build_replicas(None)?;
        engine.seed_best();
        engine.record_point();
        Ok(engine)
    }

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

    /// Sets the worker count for the replica fan-out in
    /// [`SeEngine::step`] (clamped to ≥ 1). Replicas race on
    /// [`ordered_map`] workers and their commits are merged in replica
    /// order, so the output is byte-identical to the serial run at any
    /// count — this knob only trades wall clock.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> SeEngine {
        self.threads = threads.max(1);
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
            .replicas
            .iter()
            .flat_map(|r| r.chains.iter())
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
        self.replicas
            .iter()
            .flat_map(|r| r.chains.iter().map(|c| (c.cardinality(), c.utility())))
            .collect()
    }

    /// Chains rebuilt from a checkpoint by [`SeEngine::from_checkpoint`]
    /// over this engine's lifetime (0 for a fresh engine).
    pub fn restored_chains(&self) -> usize {
        self.restored_chains
    }

    /// Takes a version-stamped, serializable snapshot of the full solver
    /// state: every chain's current solution per replica, the best
    /// solution so far, and both clocks. See [`crate::se::checkpoint`].
    pub fn checkpoint(&self) -> SeCheckpoint {
        let ckpt = SeCheckpoint {
            version: self.iteration,
            seed: self.config.seed,
            iteration: self.iteration,
            vtime: self.vtime,
            best_selected: self.best_solution.iter_selected().collect(),
            best_utility: self.best_utility,
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    r.chains
                        .iter()
                        .map(|c| ChainSnapshot {
                            cardinality: c.cardinality(),
                            selected: c.solution().iter_selected().collect(),
                        })
                        .collect()
                })
                .collect(),
        };
        self.obs.emit(
            "se_checkpoint_save",
            self.vtime,
            &[
                ("version", Value::U64(ckpt.version)),
                ("iter", Value::U64(ckpt.iteration)),
                ("chains", Value::from(ckpt.chain_count())),
            ],
        );
        ckpt
    }

    /// Rebuilds an engine from a checkpoint taken against the *same*
    /// instance shape: chains resume from their recorded solutions, clocks
    /// resume from the recorded values, and fresh deterministic RNG
    /// streams are derived from `seed ^ version` (so a restored run is
    /// reproducible without serializing RNG internals). Derived state —
    /// the instance's [`ShardColumns`], each chain's utility and its
    /// incremental [`crate::eval::EvalCache`] — is recomputed from the
    /// instance (once) and `(columns, solution)` (per chain, in
    /// [`Chain::attach`]) rather than serialized, so checkpoints stay
    /// small and restored chains never inherit incremental drift.
    ///
    /// # Errors
    ///
    /// Configuration errors; [`Error::InvalidConfig`] when the checkpoint
    /// is internally corrupt ([`SeCheckpoint::validate`]), does not match
    /// `config.seed`, or indexes shards the instance does not have.
    pub fn from_checkpoint(
        instance: &Instance,
        config: SeConfig,
        ckpt: &SeCheckpoint,
    ) -> Result<SeEngine> {
        config.validate()?;
        ckpt.validate(instance.len())?;
        if ckpt.seed != config.seed {
            return Err(Error::invalid_config(
                "seed",
                format!(
                    "checkpoint was taken under seed {} but the config says {}",
                    ckpt.seed, config.seed
                ),
            ));
        }
        let mut master = mvcom_simnet::rng::master(config.seed ^ ckpt.version);
        let columns = Arc::new(ShardColumns::new(instance));
        let mut replicas = Vec::with_capacity(ckpt.replicas.len());
        let mut restored_chains = 0usize;
        for (g, snapshots) in ckpt.replicas.iter().enumerate() {
            let rng = mvcom_simnet::rng::fork(&mut master, &format!("replica-{g}-restored"));
            let chains: Vec<Chain> = snapshots
                .iter()
                .map(|snap| {
                    let solution = Solution::from_indices(
                        instance.len(),
                        snap.selected.iter().copied(),
                        instance,
                    );
                    Chain::attach(&columns, instance, solution)
                })
                .collect();
            restored_chains += chains.len();
            replicas.push(Replica { chains, rng });
        }
        let best_solution =
            Solution::from_indices(instance.len(), ckpt.best_selected.iter().copied(), instance);
        let mut engine = SeEngine {
            instance: instance.clone(),
            config,
            replicas,
            iteration: ckpt.iteration,
            vtime: ckpt.vtime,
            best_utility: ckpt.best_utility,
            best_solution,
            last_improvement: ckpt.iteration,
            trajectory: Trajectory::default(),
            restored_chains,
            obs: Obs::off(),
            threads: 1,
        };
        engine.seed_best();
        engine.record_point();
        Ok(engine)
    }

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
                if commit.utility > self.best_utility + self.config.convergence_tol {
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

    /// `true` once the convergence window has elapsed without improvement.
    pub fn is_converged(&self) -> bool {
        self.config.convergence_window > 0
            && self.iteration >= self.last_improvement + self.config.convergence_window
    }

    /// Runs until convergence or the iteration budget, then finalizes per
    /// Alg. 1 lines 22–27 (including the full selection `f_{|I_j|}` when it
    /// fits in `Ĉ`).
    pub fn run(mut self) -> SeOutcome {
        while self.iteration < self.config.max_iterations && !self.is_converged() {
            self.step();
        }
        self.finish()
    }

    /// Finalizes without running further iterations.
    pub fn finish(mut self) -> SeOutcome {
        if self.config.include_full_solution {
            let full = Solution::full(&self.instance);
            if self.instance.is_feasible(&full) {
                let u = self.instance.utility(&full);
                if u > self.best_utility {
                    self.best_utility = u;
                    self.best_solution = full;
                }
            }
        }
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
        SeOutcome {
            converged: self.is_converged(),
            iterations: self.iteration,
            best_solution: self.best_solution,
            best_utility: self.best_utility,
            trajectory: self.trajectory,
        }
    }

    /// Handles a committee *join* (Alg. 1 lines 9–12): the epoch gains one
    /// shard, the deadline and every age term are re-derived, and chains
    /// are re-initialized or warm-started per `policy`.
    ///
    /// # Errors
    ///
    /// Propagates [`Instance::with_joined`] errors (duplicate committee).
    pub fn handle_join(&mut self, shard: ShardInfo, policy: DynamicsPolicy) -> Result<()> {
        let committee = shard.committee();
        let utility_before = self.current_best_utility();
        let new_instance = self.instance.with_joined(shard)?;
        let warm: Option<Vec<Solution>> = match policy {
            DynamicsPolicy::Reinitialize => None,
            DynamicsPolicy::Trim => Some(
                self.replicas
                    .iter()
                    .flat_map(|r| r.chains.iter())
                    .map(|c| {
                        // Same indices survive; one more unselected slot.
                        let mut grown = Solution::empty(new_instance.len());
                        for i in c.solution().iter_selected() {
                            grown.insert(i, &new_instance);
                        }
                        grown
                    })
                    .collect(),
            ),
        };
        self.instance = new_instance;
        self.after_instance_change(warm)?;
        self.emit_dynamic("join", committee, utility_before);
        Ok(())
    }

    /// Handles a committee *leave/failure* (paper §V): the shard is removed
    /// from the epoch, the solution space is trimmed (`F → G`), and chains
    /// continue over the trimmed space (`Trim`) or restart (`Reinitialize`).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownCommittee`] if the committee has no shard here, or
    /// [`Error::Infeasible`] if the survivors cannot satisfy the
    /// constraints.
    pub fn handle_leave(
        &mut self,
        committee: mvcom_types::CommitteeId,
        policy: DynamicsPolicy,
    ) -> Result<()> {
        let utility_before = self.current_best_utility();
        let (new_instance, removed_idx) = self.instance.without_committee(committee)?;
        let warm: Option<Vec<Solution>> = match policy {
            DynamicsPolicy::Reinitialize => None,
            DynamicsPolicy::Trim => Some(
                self.replicas
                    .iter()
                    .flat_map(|r| r.chains.iter())
                    .map(|c| c.solution().project_out(removed_idx, &new_instance))
                    .collect(),
            ),
        };
        self.instance = new_instance;
        self.after_instance_change(warm)?;
        self.emit_dynamic("leave", committee, utility_before);
        Ok(())
    }

    fn emit_dynamic(
        &self,
        event: &'static str,
        committee: mvcom_types::CommitteeId,
        utility_before: f64,
    ) {
        self.obs.emit(
            "se_dynamic",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("event", Value::from(event)),
                ("committee", Value::from(committee.0)),
                ("utility_before", Value::F64(utility_before)),
                ("utility_after", Value::F64(self.current_best_utility())),
            ],
        );
    }

    fn after_instance_change(&mut self, warm: Option<Vec<Solution>>) -> Result<()> {
        // The recorded best belongs to the previous epoch shape (different
        // shard indices and deadline); restart the tracker.
        self.best_utility = f64::NEG_INFINITY;
        self.best_solution = Solution::empty(self.instance.len());
        // `build_replicas` derives fresh columns from the new
        // `self.instance` and constructs every chain against them, so
        // utilities and eval caches never see the previous epoch shape.
        self.build_replicas(warm)?;
        self.seed_best();
        self.last_improvement = self.iteration;
        self.record_point();
        Ok(())
    }

    /// The feasible cardinality range for chains.
    fn cardinality_range(&self) -> std::ops::RangeInclusive<usize> {
        let lo = self.instance.n_min().max(1);
        let hi = self
            .instance
            .max_feasible_cardinality()
            .min(self.instance.len().saturating_sub(1));
        lo..=hi
    }

    fn build_replicas(&mut self, warm: Option<Vec<Solution>>) -> Result<()> {
        let cards = stride_cardinalities(self.cardinality_range(), self.config.max_chains);
        let mut master = mvcom_simnet::rng::master(self.config.seed ^ self.iteration);
        // One set of instance columns for the whole family: every chain
        // below attaches to this allocation.
        let columns = Arc::new(ShardColumns::new(&self.instance));
        let mut replicas = Vec::with_capacity(self.config.gamma);
        let warm_pool = warm.unwrap_or_default();
        for g in 0..self.config.gamma {
            let mut rng = mvcom_simnet::rng::fork(&mut master, &format!("replica-{g}"));
            let mut chains = Vec::new();
            for n in cards.iter().copied() {
                // Prefer a warm solution with this cardinality if one exists.
                let warm_match = warm_pool
                    .iter()
                    .find(|s| s.selected_count() == n && self.instance.within_capacity(s));
                let chain = match warm_match {
                    Some(s) => Chain::attach(&columns, &self.instance, s.clone()),
                    None => {
                        match Chain::init_on(&columns, &self.instance, n, &self.config, &mut rng) {
                            Ok(c) => c,
                            // No n-subset fits the capacity: skip this cardinality.
                            Err(Error::Infeasible { .. }) => continue,
                            Err(e) => return Err(e),
                        }
                    }
                };
                chains.push(chain);
            }
            replicas.push(Replica { chains, rng });
        }
        let any_chain = replicas.iter().any(|r| !r.chains.is_empty());
        if !any_chain && !self.instance.is_feasible(&Solution::full(&self.instance)) {
            return Err(Error::infeasible(
                "no feasible cardinality admits a chain and the full selection violates a constraint",
            ));
        }
        self.replicas = replicas;
        Ok(())
    }

    /// Seeds the best-so-far tracker from the freshly built chains (and the
    /// full solution when no chains exist).
    fn seed_best(&mut self) {
        for replica in &self.replicas {
            for chain in &replica.chains {
                if chain.utility() > self.best_utility {
                    self.best_utility = chain.utility();
                    self.best_solution = chain.solution().clone();
                }
            }
        }
        if self.best_utility == f64::NEG_INFINITY {
            let full = Solution::full(&self.instance);
            if self.instance.is_feasible(&full) {
                self.best_utility = self.instance.utility(&full);
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
        self.trajectory.push(TrajectoryPoint {
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
        let chains: usize = self.replicas.iter().map(|r| r.chains.len()).sum();
        let range = self.cardinality_range();
        self.obs.emit(
            "se_init",
            self.vtime,
            &[
                ("iter", Value::U64(self.iteration)),
                ("gamma", Value::from(self.config.gamma)),
                ("chains", Value::from(chains)),
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

/// The chain cardinalities for one replica: the whole feasible range when
/// it fits within `max_chains`, otherwise at most `max_chains` evenly
/// spaced cardinalities with both endpoints kept (the `N_min` floor and
/// the capacity ceiling anchor the solution family — see
/// [`SeConfig::max_chains`]). At the `usize::MAX` default this is exactly
/// the full range, so pre-scale behavior is unchanged.
fn stride_cardinalities(range: std::ops::RangeInclusive<usize>, max_chains: usize) -> Vec<usize> {
    let (lo, hi) = (*range.start(), *range.end());
    if lo > hi {
        return Vec::new();
    }
    let width = hi - lo + 1;
    if width <= max_chains {
        return range.collect();
    }
    if max_chains == 1 {
        return vec![lo];
    }
    let mut cards: Vec<usize> = (0..max_chains)
        .map(|i| lo + i * (width - 1) / (max_chains - 1))
        .collect();
    // width > max_chains makes the index map strictly increasing, but
    // dedup is cheap insurance against rounding collisions.
    cards.dedup();
    cards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{CommitteeId, SimTime, TwoPhaseLatency};

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn instance(n: usize) -> Instance {
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
    fn stride_keeps_full_range_within_budget() {
        assert_eq!(stride_cardinalities(3..=7, usize::MAX), vec![3, 4, 5, 6, 7]);
        assert_eq!(stride_cardinalities(3..=7, 5), vec![3, 4, 5, 6, 7]);
        assert_eq!(stride_cardinalities(4..=4, 1), vec![4]);
        let empty = std::ops::RangeInclusive::new(5, 4);
        assert!(stride_cardinalities(empty, 8).is_empty());
    }

    #[test]
    fn stride_bounds_and_keeps_endpoints() {
        for (lo, hi, k) in [(1usize, 100usize, 4usize), (10, 9_999, 7), (2, 11, 3)] {
            let cards = stride_cardinalities(lo..=hi, k);
            assert!(cards.len() <= k, "{lo}..={hi} @ {k}: {cards:?}");
            assert_eq!(cards.first(), Some(&lo));
            assert_eq!(cards.last(), Some(&hi));
            assert!(cards.windows(2).all(|w| w[0] < w[1]), "{cards:?}");
        }
        assert_eq!(stride_cardinalities(5..=50, 1), vec![5]);
    }

    #[test]
    fn max_chains_bounds_chains_per_replica() {
        let inst = instance(40);
        let budget = 3;
        let engine = SeEngine::new(
            &inst,
            SeConfig {
                max_chains: budget,
                ..SeConfig::fast_test(12)
            },
        )
        .unwrap();
        for replica in &engine.replicas {
            assert!(replica.chains.len() <= budget);
        }
        let outcome = engine.run();
        assert!(inst.is_feasible(&outcome.best_solution));
        assert!(outcome.best_utility > 0.0);
    }

    #[test]
    fn generous_max_chains_matches_default_behavior() {
        let inst = instance(25);
        let a = SeEngine::new(&inst, SeConfig::fast_test(9)).unwrap().run();
        let b = SeEngine::new(
            &inst,
            SeConfig {
                max_chains: 1_000,
                ..SeConfig::fast_test(9)
            },
        )
        .unwrap()
        .run();
        assert_eq!(a.best_solution, b.best_solution);
        assert_eq!(a.trajectory, b.trajectory);
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

    #[test]
    fn join_extends_instance_and_keeps_feasibility() {
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(7)).unwrap();
        for _ in 0..50 {
            engine.step();
        }
        engine
            .handle_join(shard(100, 90, 950.0), DynamicsPolicy::Trim)
            .unwrap();
        assert_eq!(engine.instance().len(), 21);
        for _ in 0..50 {
            engine.step();
        }
        let outcome = engine.finish();
        assert_eq!(outcome.best_solution.len(), 21);
    }

    #[test]
    fn leave_trims_instance_and_recovers() {
        let inst = instance(20);
        for policy in [DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize] {
            let mut engine = SeEngine::new(&inst, SeConfig::fast_test(8)).unwrap();
            for _ in 0..50 {
                engine.step();
            }
            engine.handle_leave(CommitteeId(3), policy).unwrap();
            assert_eq!(engine.instance().len(), 19);
            assert!(engine.instance().index_of(CommitteeId(3)).is_none());
            for _ in 0..50 {
                engine.step();
            }
            let outcome = engine.finish();
            let final_inst = InstanceBuilder::new()
                .alpha(1.5)
                .capacity(inst.capacity())
                .n_min(inst.n_min())
                .shards(
                    inst.shards()
                        .iter()
                        .filter(|s| s.committee() != CommitteeId(3))
                        .copied()
                        .collect(),
                )
                .build()
                .unwrap();
            assert!(final_inst.is_feasible(&outcome.best_solution), "{policy:?}");
        }
    }

    #[test]
    fn leave_of_unknown_committee_errors() {
        let inst = instance(10);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(12)).unwrap();
        assert!(engine
            .handle_leave(CommitteeId(999), DynamicsPolicy::Trim)
            .is_err());
    }

    #[test]
    fn duplicate_join_errors() {
        let inst = instance(10);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(13)).unwrap();
        assert!(engine
            .handle_join(shard(0, 50, 100.0), DynamicsPolicy::Trim)
            .is_err());
    }

    #[test]
    fn chain_utilities_cover_cardinality_range() {
        let inst = instance(30);
        let engine = SeEngine::new(&inst, SeConfig::fast_test(14)).unwrap();
        let cards: std::collections::BTreeSet<usize> =
            engine.chain_utilities().iter().map(|&(n, _)| n).collect();
        let lo = inst.n_min().max(1);
        assert!(cards.contains(&lo));
        assert!(cards.len() > 1);
        for &n in &cards {
            assert!(n >= lo);
            assert!(n <= inst.max_feasible_cardinality());
        }
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
    fn checkpoint_round_trips_and_resumes_the_run() {
        let inst = instance(25);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(31)).unwrap();
        for _ in 0..80 {
            engine.step();
        }
        let before = engine.current_best_utility();
        let ckpt = engine.checkpoint();
        assert_eq!(ckpt.version, 80);
        assert!(ckpt.validate(inst.len()).is_ok());

        // The snapshot survives a process boundary as JSON.
        let json = serde_json::to_string(&ckpt).unwrap();
        let ckpt: crate::se::SeCheckpoint = serde_json::from_str(&json).unwrap();

        // The killed solver's replacement resumes from the snapshot.
        let mut restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(31), &ckpt).unwrap();
        assert_eq!(restored.iteration(), 80);
        assert_eq!(restored.restored_chains(), ckpt.chain_count());
        assert!(restored.restored_chains() > 0);
        assert!(
            restored.current_best_utility() >= before - 1e-9,
            "restored chains must stand where the originals stood"
        );
        for _ in 0..200 {
            restored.step();
        }
        let outcome = restored.finish();
        assert!(inst.is_feasible(&outcome.best_solution));
        assert!(outcome.best_utility >= before - 1e-9);
    }

    #[test]
    fn every_chain_of_an_engine_build_shares_one_set_of_columns() {
        /// The one allocation every chain of `engine` reads.
        fn shared(engine: &SeEngine) -> Arc<ShardColumns> {
            let mut chains = engine.replicas.iter().flat_map(|r| r.chains.iter());
            let first = Arc::clone(chains.next().unwrap().columns());
            assert!(chains.all(|c| Arc::ptr_eq(c.columns(), &first)));
            assert_eq!(first.len(), engine.instance().len());
            first
        }
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(36)).unwrap();
        let fresh = shared(&engine);
        for _ in 0..30 {
            engine.step();
        }
        let restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(36), &engine.checkpoint())
                .unwrap();
        assert!(!Arc::ptr_eq(&shared(&restored), &fresh));

        // A join, then a leave: each rebuild derives columns from the new
        // epoch shape and drops the old ones — only this test still holds
        // them.
        engine
            .handle_join(shard(100, 90, 950.0), DynamicsPolicy::Trim)
            .unwrap();
        let joined = shared(&engine);
        assert_eq!(Arc::strong_count(&fresh), 1);
        engine
            .handle_leave(CommitteeId(3), DynamicsPolicy::Reinitialize)
            .unwrap();
        let left = shared(&engine);
        assert_eq!(Arc::strong_count(&joined), 1);

        // Stale columns refuse the changed epoch, in release builds too:
        // `joined` by its length, `fresh` — 20 shards again — by the
        // deadline the joined straggler moved.
        let now = engine.instance();
        assert_eq!(fresh.len(), now.len());
        for stale in [&fresh, &joined] {
            let attach = || {
                crate::eval::EvalCache::attach(Arc::clone(stale), now, &Solution::empty(now.len()))
            };
            assert!(
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(attach)).is_err(),
                "stale columns attached to a changed instance"
            );
        }
        let _ = crate::eval::EvalCache::attach(left, now, &Solution::empty(now.len()));
    }

    #[test]
    fn from_checkpoint_rejects_mismatch_and_corruption() {
        let inst = instance(12);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(32)).unwrap();
        for _ in 0..20 {
            engine.step();
        }
        let ckpt = engine.checkpoint();
        // Wrong seed.
        assert!(SeEngine::from_checkpoint(&inst, SeConfig::fast_test(33), &ckpt).is_err());
        // Corrupt indices (point past the instance).
        let mut bad = ckpt.clone();
        bad.best_selected = vec![inst.len() + 5];
        assert!(SeEngine::from_checkpoint(&inst, SeConfig::fast_test(32), &bad).is_err());
        // A smaller instance cannot host the snapshot.
        let small = instance(6);
        assert!(SeEngine::from_checkpoint(&small, SeConfig::fast_test(32), &ckpt).is_err());
    }

    #[test]
    fn post_failure_restore_reconverges_within_the_theorem_2_bound() {
        // Kill the solver mid-run, restore from its checkpoint, then lose
        // a committee (Trim): Theorem 2 bounds the post-perturbation
        // utility by the best utility of the trimmed space, and the
        // restored engine must re-converge to a utility within that bound.
        let inst = instance(20);
        let mut engine = SeEngine::new(&inst, SeConfig::fast_test(34)).unwrap();
        for _ in 0..150 {
            engine.step();
        }
        let ckpt = engine.checkpoint();
        drop(engine); // the solver process dies here

        let mut restored =
            SeEngine::from_checkpoint(&inst, SeConfig::fast_test(34), &ckpt).unwrap();
        restored
            .handle_leave(CommitteeId(4), DynamicsPolicy::Trim)
            .unwrap();
        for _ in 0..400 {
            restored.step();
        }
        let outcome = restored.finish();

        // The best utility over the trimmed space G, computed by an
        // independent fresh solve of the survivor instance.
        let trimmed = InstanceBuilder::new()
            .alpha(1.5)
            .capacity(inst.capacity())
            .n_min(inst.n_min())
            .shards(
                inst.shards()
                    .iter()
                    .filter(|s| s.committee() != CommitteeId(4))
                    .copied()
                    .collect(),
            )
            .build()
            .unwrap();
        let best_trimmed = SeEngine::new(&trimmed, SeConfig::paper(35).with_max_iterations(3_000))
            .unwrap()
            .run()
            .best_utility;
        let bound = crate::theory::perturbation_bound(best_trimmed);
        assert!(trimmed.is_feasible(&outcome.best_solution));
        assert!(
            outcome.best_utility <= bound + 1e-9,
            "post-failure utility {} exceeds the Theorem 2 bound {bound}",
            outcome.best_utility
        );
        assert!(
            outcome.best_utility >= 0.9 * bound,
            "restored engine failed to re-converge: {} vs bound {bound}",
            outcome.best_utility
        );
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
