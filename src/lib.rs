//! **MVCom** — scheduling the Most Valuable Committees for a large-scale
//! sharded blockchain.
//!
//! A production-quality Rust reproduction of *"MVCom: Scheduling Most
//! Valuable Committees for the Large-Scale Sharded Blockchain"* (Huang,
//! Huang, Peng, Zheng, Guo — IEEE ICDCS 2021). The workspace contains the
//! paper's contribution and every substrate it runs on:
//!
//! | Layer | Crate | What it provides |
//! |-------|-------|------------------|
//! | scheduler | [`mvcom_core`] | the MVCom problem, the Stochastic-Exploration engine, online dynamics, theory |
//! | baselines | [`mvcom_baselines`] | SA, DP, WOA, greedy, exhaustive |
//! | service | [`mvcom_daemon`] | the long-running scheduling daemon: streaming ingest, crash-safe epoch history, metrics endpoint |
//! | protocol | [`mvcom_elastico`] | the five-stage sharding epoch (PoW, formation, PBFT, final consensus, randomness) |
//! | consensus | [`mvcom_pbft`] | single-decision PBFT with view changes and Byzantine behaviours |
//! | substrate | [`mvcom_simnet`] | discrete-event engine, P2P network, latency models, statistics |
//! | data | [`mvcom_dataset`] | Bitcoin-like transaction trace and epoch shard sampling |
//! | types | [`mvcom_types`] | shared ids, time, latency, errors |
//!
//! This facade crate re-exports the public API and contributes the glue
//! type that the layering keeps out of the lower crates: [`SeSelector`],
//! which runs the SE scheduler inside an Elastico final committee.
//!
//! # Quick start: schedule one epoch
//!
//! ```
//! use mvcom::prelude::*;
//!
//! # fn main() -> Result<(), mvcom::Error> {
//! // Build an epoch from the synthetic Bitcoin-like trace.
//! let trace = Trace::generate(TraceConfig::tiny(300), 7);
//! let mut epochs = EpochGenerator::new(&trace, LatencyConfig::paper(), 7);
//! let shards = epochs.next_epoch_with_replacement(50, 1)?;
//!
//! // Formulate MVCom with the paper's defaults: Ĉ = 1000·|I|, N_min = 50%.
//! let instance = InstanceBuilder::new()
//!     .alpha(1.5)
//!     .capacity(50 * 1000)
//!     .n_min(25)
//!     .shards(shards)
//!     .build()?;
//!
//! // Schedule with Stochastic Exploration.
//! let outcome = SeEngine::new(&instance, SeConfig::paper(7))?.run();
//! assert!(instance.is_feasible(&outcome.best_solution));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;

pub use mvcom_baselines as baselines;
pub use mvcom_core as core;
pub use mvcom_daemon as daemon;
pub use mvcom_dataset as dataset;
pub use mvcom_elastico as elastico;
pub use mvcom_obs as obs;
pub use mvcom_pbft as pbft;
pub use mvcom_simnet as simnet;
pub use mvcom_types as types;

pub use mvcom_types::{Error, Result};

use mvcom_core::defense::{DefenseConfig, DefenseEngine, DefenseObservation};
use mvcom_core::dynamics::{DynamicsPolicy, EventRecord};
use mvcom_core::problem::InstanceBuilder;
use mvcom_core::se::{SeConfig, SeEngine};
use mvcom_dataset::{Adversary, CommitteeReport};
use mvcom_elastico::epoch::{ElasticoSim, EpochReport, ShardSelector};
use mvcom_elastico::recovery::RecoverySelector;
use mvcom_types::{CommitteeId, Result as MvResult, ShardInfo};

/// Everything most programs need, one import away.
pub mod prelude {
    pub use mvcom_baselines::{
        BnbSolver, DpSolver, ExhaustiveSolver, GreedySolver, SaSolver, Solver, SolverOutcome,
        WoaSolver,
    };
    pub use mvcom_core::defense::{
        DefenseCheckpoint, DefenseConfig, DefenseEngine, DefenseObservation, ScreenedReport,
    };
    pub use mvcom_core::dynamics::{run_online, DynamicsPolicy, EventKind, TimedEvent};
    pub use mvcom_core::epoch_chain::{EpochCapacity, EpochChain, EpochChainConfig, EpochOutcome};
    pub use mvcom_core::problem::InstanceBuilder;
    pub use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine, SeOutcome};
    pub use mvcom_core::{DdlPolicy, Instance, Solution};
    pub use mvcom_dataset::{
        build_adversary, Adversary, AdversaryConfig, CommitteeReport, EpochGenerator, Freerider,
        LatencyConfig, Misreport, Starver, StrategicPopulation, Trace, TraceConfig,
    };
    pub use mvcom_elastico::detector::{CommitteeHealth, HeartbeatConfig, HeartbeatMonitor};
    pub use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim, ShardSelector, WaitForAll};
    pub use mvcom_elastico::recovery::{
        submission_node, RecoveryConfig, RecoverySelector, RobustnessReport, SurvivorsOnly,
        FINAL_NODE,
    };
    pub use mvcom_obs::{Obs, ObsLevel};
    pub use mvcom_simnet::{ChaosConfig, ChaosInjector, ChaosStats, CrashEvent};
    pub use mvcom_types::{
        CommitteeId, EpochId, Error, Hash32, NodeId, Result, ShardInfo, SimTime, TwoPhaseLatency,
    };

    pub use crate::metrics::{ChainMetrics, RobustnessMetrics, ScheduleMetrics};
    pub use crate::{CapacityRule, DefendedSeSelector, SeRecoverySelector, SeSelector};
}

/// An Elastico [`ShardSelector`] backed by the MVCom Stochastic-Exploration
/// scheduler — the paper's system, end to end.
///
/// At each epoch's stage 4 the selector:
/// 1. applies the arrival cutoff `N_max` (the final committee stops
///    listening once the configured fraction of committees has submitted —
///    Alg. 1 lines 29–30), keeping the earliest arrivals;
/// 2. builds the MVCom instance with `N_min = n_min_fraction · |I_j|` and
///    capacity `Ĉ = capacity_per_committee · |I_j|` (the paper's scaling);
/// 3. runs [`SeEngine`] and admits the converged selection.
///
/// # Example
///
/// ```
/// use mvcom::SeSelector;
/// use mvcom::elastico::epoch::{ElasticoConfig, ElasticoSim};
///
/// # fn main() -> Result<(), mvcom::Error> {
/// let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 11)?;
/// let mut selector = SeSelector::paper(11);
/// let report = sim.run_epoch_with(&mut selector)?;
/// assert!(report.final_block.committed);
/// assert!(!report.final_block.included.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SeSelector {
    /// The throughput weight `α`.
    pub alpha: f64,
    /// How the final-block capacity `Ĉ` is derived from the epoch.
    pub capacity: CapacityRule,
    /// `N_min` as a fraction of the arrived committees (paper: 0.5).
    pub n_min_fraction: f64,
    /// Arrival cutoff `N_max` as a fraction of submitted shards
    /// (paper: 0.8).
    pub n_max_fraction: f64,
    /// The SE engine configuration.
    pub se: SeConfig,
    obs: mvcom_obs::Obs,
}

/// How a [`SeSelector`] derives the final-block capacity `Ĉ` for an epoch.
///
/// The paper's experiments fix `Ĉ = 1000·|I_j|` because its dataset packs
/// ~1000 TXs per shard; real epochs have shard sizes set by the workload,
/// so a fraction-of-load rule keeps the knapsack meaningfully tight at any
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityRule {
    /// `Ĉ = per_committee · |I_j|` — the paper's rule.
    PerCommittee(u64),
    /// `Ĉ = fraction · Σ_i s_i` over the shards that survived the arrival
    /// cutoff; the fraction is clamped to `(0, 1]`.
    FractionOfLoad(f64),
}

impl CapacityRule {
    fn capacity(&self, shards: &[ShardInfo]) -> u64 {
        match *self {
            CapacityRule::PerCommittee(per) => per.saturating_mul(shards.len() as u64),
            CapacityRule::FractionOfLoad(fraction) => {
                let total: u64 = shards.iter().map(|s| s.tx_count()).sum();
                let f = fraction.clamp(f64::EPSILON, 1.0);
                ((total as f64) * f).round().max(1.0) as u64
            }
        }
    }
}

impl SeSelector {
    /// The paper's §VI-A defaults: `α = 1.5`, `Ĉ = 1000·|I|`,
    /// `N_min = 50%·|I|`, `N_max = 80%`.
    pub fn paper(seed: u64) -> SeSelector {
        SeSelector {
            alpha: 1.5,
            capacity: CapacityRule::PerCommittee(1_000),
            n_min_fraction: 0.5,
            n_max_fraction: 0.8,
            se: SeConfig::paper(seed),
            obs: mvcom_obs::Obs::off(),
        }
    }

    /// Attaches a telemetry handle: each epoch's SE run emits the `se_*`
    /// events documented in OBSERVABILITY.md.
    #[must_use]
    pub fn with_obs(mut self, obs: mvcom_obs::Obs) -> SeSelector {
        self.obs = obs;
        self
    }

    /// A workload-adaptive selector: `Ĉ` is the given fraction of the
    /// submitted transaction load, so the knapsack stays active whatever
    /// the shard sizes are. Suitable for driving [`ElasticoSim`] epochs,
    /// whose shards carry the full trace.
    ///
    /// [`ElasticoSim`]: mvcom_elastico::epoch::ElasticoSim
    pub fn adaptive(seed: u64, load_fraction: f64) -> SeSelector {
        SeSelector {
            capacity: CapacityRule::FractionOfLoad(load_fraction),
            ..SeSelector::paper(seed)
        }
    }
}

impl ShardSelector for SeSelector {
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
        let fallback = || shards.iter().map(|s| s.committee()).collect::<Vec<_>>();
        if shards.len() < 2 {
            return fallback();
        }
        // Arrival cutoff: keep the earliest N_max fraction (at least 2, and
        // at least enough to satisfy N_min of the survivors).
        let keep =
            ((shards.len() as f64 * self.n_max_fraction).round() as usize).clamp(2, shards.len());
        let mut by_arrival: Vec<ShardInfo> = shards.to_vec();
        by_arrival.sort_by_key(|a| a.two_phase_latency());
        by_arrival.truncate(keep);

        let n_min = (by_arrival.len() as f64 * self.n_min_fraction).round() as usize;
        let capacity = self.capacity.capacity(&by_arrival);
        let instance = match InstanceBuilder::new()
            .alpha(self.alpha)
            .capacity(capacity)
            .n_min(n_min)
            .shards(by_arrival)
            .build()
        {
            Ok(instance) => instance,
            // Degenerate epochs (e.g. one giant shard) fall back to
            // admitting everything, like vanilla Elastico.
            Err(_) => return fallback(),
        };
        match SeEngine::new(&instance, self.se) {
            Ok(engine) => {
                let outcome = engine.with_obs(self.obs.clone()).run();
                instance.committees(&outcome.best_solution).collect()
            }
            Err(_) => fallback(),
        }
    }
}

/// A defense-hardened [`SeSelector`]: screens every formation-time report
/// through a [`DefenseEngine`] before the SE scheduler sees it, and feeds
/// realized-vs-reported evidence back after each epoch settles.
///
/// This is the glue the adversarial evaluation (`fig_adv`, the
/// `--adv-fraction` CLI path) runs: strategic committees lie at formation,
/// the reputation layer corrects/discounts/quarantines, and the SE engine
/// schedules over the screened estimates.
///
/// # Example
///
/// ```
/// use mvcom::prelude::*;
///
/// # fn main() -> Result<(), mvcom::Error> {
/// let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 13)?;
/// let adversary = Misreport::new(AdversaryConfig::new(0.25, 13)?);
/// let mut selector = DefendedSeSelector::paper(13)?;
/// let (report, reports) = selector.run_epoch(&mut sim, &adversary)?;
/// assert!(report.final_block.committed);
/// assert!(reports.iter().any(|r| r.adversarial));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DefendedSeSelector {
    /// The inner SE-backed selector (scheduling over screened reports).
    pub selector: SeSelector,
    /// The reputation layer: robust estimation, trust, quarantine.
    pub defense: DefenseEngine,
    epoch: u64,
}

impl DefendedSeSelector {
    /// Paper-default SE selector plus paper-default defenses.
    ///
    /// # Errors
    ///
    /// Propagates [`DefenseConfig`] validation.
    pub fn paper(seed: u64) -> Result<DefendedSeSelector> {
        Ok(DefendedSeSelector {
            selector: SeSelector::paper(seed),
            defense: DefenseEngine::new(DefenseConfig::paper())?,
            epoch: 0,
        })
    }

    /// Wraps an existing selector/defense pair.
    pub fn new(selector: SeSelector, defense: DefenseEngine) -> DefendedSeSelector {
        DefendedSeSelector {
            selector,
            defense,
            epoch: 0,
        }
    }

    /// Attaches a telemetry handle to both layers: the SE engine's `se_*`
    /// events plus the defense `flagged` / `quarantine` / `rehabilitated`
    /// events.
    #[must_use]
    pub fn with_obs(mut self, obs: mvcom_obs::Obs) -> DefendedSeSelector {
        self.selector = self.selector.with_obs(obs.clone());
        self.defense = self.defense.with_obs(obs);
        self
    }

    /// Runs one adversarial epoch end to end: strategic committees file
    /// reports, the defense screens them, the SE engine schedules, stage 4
    /// settles on realized behaviour, and the defense ingests the
    /// observed-vs-reported evidence (true latency for every committee,
    /// true size only for admitted shards).
    ///
    /// # Errors
    ///
    /// See [`ElasticoSim::run_epoch_with`].
    pub fn run_epoch(
        &mut self,
        sim: &mut ElasticoSim,
        adversary: &dyn Adversary,
    ) -> Result<(EpochReport, Vec<CommitteeReport>)> {
        self.epoch = sim.current_epoch().value();
        let (report, reports) = sim.run_epoch_adversarial(self, adversary)?;
        let included = &report.final_block.included;
        let observations: Vec<DefenseObservation> = reports
            .iter()
            .map(|r| {
                let admitted = included.contains(&r.committee());
                DefenseObservation::settled(&r.reported, &r.truth, admitted)
            })
            .collect();
        self.defense.end_epoch(self.epoch, &observations);
        Ok((report, reports))
    }
}

impl ShardSelector for DefendedSeSelector {
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
        let n_min = (shards.len() as f64 * self.selector.n_min_fraction).round() as usize;
        let screened = self.defense.admissible(self.epoch, shards, n_min);
        self.selector.select(&screened)
    }
}

/// The MVCom scheduler as an *online* admission strategy for the
/// fault-tolerant epoch runner
/// ([`ElasticoSim::run_epoch_recovering`](mvcom_elastico::recovery)).
///
/// Where [`SeSelector`] answers one batch question at stage 4, this
/// selector keeps a live [`SeEngine`] running while the final committee's
/// heartbeat detector watches the member committees. When a committee is
/// declared failed mid-epoch:
///
/// 1. the engine's state is **checkpointed** (version-stamped, serialized
///    through `serde_json` and restored — exercising the same path a
///    killed distributed solver process would take, per §IV-D);
/// 2. the restored engine **trims** the dead committee out of the solution
///    space via [`DynamicsPolicy::Trim`] (paper §V, `F → G`) and keeps
///    iterating — no scripted [`TimedEvent`](mvcom_core::dynamics)
///    sequence involved;
/// 3. the utility perturbation is recorded as an [`EventRecord`], so tests
///    can check it against the Theorem 2 bound.
#[derive(Debug)]
pub struct SeRecoverySelector {
    /// The throughput weight `α`.
    pub alpha: f64,
    /// How the final-block capacity `Ĉ` is derived from the epoch.
    pub capacity: CapacityRule,
    /// `N_min` as a fraction of the submitted committees (paper: 0.5).
    pub n_min_fraction: f64,
    /// The SE engine configuration.
    pub se: SeConfig,
    engine: Option<SeEngine>,
    shards: Vec<ShardInfo>,
    events: Vec<EventRecord>,
    chains_restored: usize,
    obs: mvcom_obs::Obs,
}

impl SeRecoverySelector {
    /// The paper's defaults over a workload-adaptive capacity (60% of the
    /// submitted load), ready to drive an [`ElasticoSim`] epoch.
    ///
    /// [`ElasticoSim`]: mvcom_elastico::epoch::ElasticoSim
    pub fn adaptive(seed: u64, load_fraction: f64) -> SeRecoverySelector {
        SeRecoverySelector {
            alpha: 1.5,
            capacity: CapacityRule::FractionOfLoad(load_fraction),
            n_min_fraction: 0.5,
            se: SeConfig::paper(seed),
            engine: None,
            shards: Vec::new(),
            events: Vec::new(),
            chains_restored: 0,
            obs: mvcom_obs::Obs::off(),
        }
    }

    /// Attaches a telemetry handle: the live engine emits `se_*` events and
    /// each handled failure emits the `se_checkpoint_save` /
    /// `se_checkpoint_restore` / `se_dynamic` sequence.
    #[must_use]
    pub fn with_obs(mut self, obs: mvcom_obs::Obs) -> SeRecoverySelector {
        self.obs = obs;
        self
    }

    /// The utility perturbations recorded around each handled failure.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Chains rebuilt from checkpoints across all handled failures.
    pub fn chains_restored(&self) -> usize {
        self.chains_restored
    }

    /// The live engine's current best utility, if a scheduling problem has
    /// been posed.
    pub fn current_best_utility(&self) -> Option<f64> {
        self.engine.as_ref().map(SeEngine::current_best_utility)
    }
}

impl RecoverySelector for SeRecoverySelector {
    fn begin(&mut self, shards: &[ShardInfo]) -> MvResult<()> {
        self.shards = shards.to_vec();
        if shards.len() < 2 {
            return Ok(()); // degenerate epoch: finish() admits everything
        }
        let n_min = (shards.len() as f64 * self.n_min_fraction).round() as usize;
        let instance = match InstanceBuilder::new()
            .alpha(self.alpha)
            .capacity(self.capacity.capacity(shards))
            .n_min(n_min)
            .shards(shards.to_vec())
            .build()
        {
            Ok(instance) => instance,
            Err(_) => return Ok(()), // fall back to admitting every survivor
        };
        self.engine = SeEngine::new(&instance, self.se)
            .ok()
            .map(|e| e.with_obs(self.obs.clone()));
        Ok(())
    }

    fn advance(&mut self, iterations: u64) {
        if let Some(engine) = &mut self.engine {
            for _ in 0..iterations {
                if engine.is_converged() {
                    break;
                }
                engine.step();
            }
        }
    }

    fn on_failure(&mut self, committee: CommitteeId) -> MvResult<()> {
        self.shards.retain(|s| s.committee() != committee);
        let Some(engine) = self.engine.take() else {
            return Ok(());
        };
        if engine.instance().index_of(committee).is_none() {
            self.engine = Some(engine);
            return Ok(());
        }
        let utility_before = engine.current_best_utility();
        let at_iteration = engine.iteration();
        // The failure kills the solver process along with the committee:
        // round-trip the version-stamped checkpoint through serialization
        // and restore, as a replacement process would.
        let instance = engine.instance().clone();
        let config = *engine.config();
        let ckpt = engine.checkpoint();
        drop(engine);
        let json = serde_json::to_string(&ckpt)
            .map_err(|e| Error::simulation(format!("checkpoint encode failed: {e}")))?;
        let ckpt: mvcom_core::se::SeCheckpoint = serde_json::from_str(&json)
            .map_err(|e| Error::simulation(format!("checkpoint decode failed: {e}")))?;
        let mut restored =
            SeEngine::from_checkpoint(&instance, config, &ckpt)?.with_obs(self.obs.clone());
        self.chains_restored += restored.restored_chains();
        // §V solution-space surgery: trim the dead committee, keep going.
        match restored.handle_leave(committee, DynamicsPolicy::Trim) {
            Ok(()) => {
                self.events.push(EventRecord {
                    at_iteration,
                    utility_before,
                    utility_after: restored.current_best_utility(),
                    is_join: false,
                });
                self.engine = Some(restored);
            }
            // The trimmed epoch is infeasible for the scheduler (e.g. too
            // few survivors): drop the engine and degrade to
            // admit-all-survivors at finish().
            Err(_) => self.engine = None,
        }
        Ok(())
    }

    fn finish(&mut self) -> Vec<CommitteeId> {
        match self.engine.take() {
            Some(engine) => {
                let instance = engine.instance().clone();
                let outcome = engine.finish();
                instance.committees(&outcome.best_solution).collect()
            }
            None => self.shards.iter().map(|s| s.committee()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_types::{SimTime, TwoPhaseLatency};

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    #[test]
    fn selector_applies_arrival_cutoff() {
        let shards: Vec<ShardInfo> = (0..10)
            .map(|i| shard(i, 800, 500.0 + 100.0 * f64::from(i)))
            .collect();
        let mut selector = SeSelector::paper(1);
        let included = selector.select(&shards);
        // N_max = 0.8 keeps the 8 earliest arrivals; the two slowest
        // committees (ids 8 and 9) can never be admitted.
        assert!(!included.contains(&CommitteeId(8)));
        assert!(!included.contains(&CommitteeId(9)));
        // N_min = 50% of the 8 kept = 4.
        assert!(included.len() >= 4);
        assert!(included.len() <= 8);
    }

    #[test]
    fn selector_respects_capacity() {
        let shards: Vec<ShardInfo> = (0..10)
            .map(|i| shard(i, 900, 500.0 + 10.0 * f64::from(i)))
            .collect();
        let mut selector = SeSelector::paper(2);
        let included = selector.select(&shards);
        let total: u64 = shards
            .iter()
            .filter(|s| included.contains(&s.committee()))
            .map(|s| s.tx_count())
            .sum();
        // Capacity is 1000 × 8 kept shards = 8000.
        assert!(total <= 8_000, "selected {total} txs");
    }

    #[test]
    fn degenerate_epochs_fall_back_to_everything() {
        let shards = vec![shard(0, 1_000_000, 100.0)];
        let mut selector = SeSelector::paper(3);
        assert_eq!(selector.select(&shards), vec![CommitteeId(0)]);
    }

    #[test]
    fn adaptive_capacity_tracks_the_load() {
        // Shards of ~90K TXs dwarf the paper's per-committee rule; the
        // adaptive selector must still produce a real (strict) selection.
        let shards: Vec<ShardInfo> = (0..12)
            .map(|i| {
                shard(
                    i,
                    90_000 + 1_000 * u64::from(i),
                    600.0 + 200.0 * f64::from(i),
                )
            })
            .collect();
        let mut selector = SeSelector::adaptive(4, 0.6);
        let included = selector.select(&shards);
        assert!(!included.is_empty());
        assert!(included.len() < shards.len(), "selection must be strict");
        let total: u64 = shards
            .iter()
            .filter(|s| included.contains(&s.committee()))
            .map(|s| s.tx_count())
            .sum();
        // Capacity = 60% of the load surviving the 0.8 arrival cutoff.
        let kept_total: u64 = {
            let mut v = shards.clone();
            v.sort_by_key(|a| a.two_phase_latency());
            v.truncate(10);
            v.iter().map(|s| s.tx_count()).sum()
        };
        assert!(total <= (kept_total as f64 * 0.6).round() as u64 + 1);
    }

    #[test]
    fn recovery_selector_schedules_like_the_batch_selector_without_faults() {
        let shards: Vec<ShardInfo> = (0..12)
            .map(|i| {
                shard(
                    i,
                    90_000 + 1_000 * u64::from(i),
                    600.0 + 200.0 * f64::from(i),
                )
            })
            .collect();
        let mut selector = SeRecoverySelector::adaptive(4, 0.6);
        selector.begin(&shards).unwrap();
        selector.advance(2_000);
        let included = selector.finish();
        assert!(!included.is_empty());
        assert!(included.len() < shards.len(), "selection must be strict");
        assert!(selector.events().is_empty());
        assert_eq!(selector.chains_restored(), 0);
    }

    #[test]
    fn recovery_selector_trims_failures_through_a_checkpoint_restore() {
        let shards: Vec<ShardInfo> = (0..12)
            .map(|i| {
                shard(
                    i,
                    90_000 + 1_000 * u64::from(i),
                    600.0 + 200.0 * f64::from(i),
                )
            })
            .collect();
        let mut selector = SeRecoverySelector::adaptive(5, 0.6);
        selector.begin(&shards).unwrap();
        selector.advance(300);
        selector.on_failure(CommitteeId(3)).unwrap();
        selector.advance(1_000);
        let included = selector.finish();
        assert!(!included.contains(&CommitteeId(3)));
        assert!(!included.is_empty());
        // The failure was handled through a serialized checkpoint restore.
        assert_eq!(selector.events().len(), 1);
        assert!(!selector.events()[0].is_join);
        assert!(selector.chains_restored() > 0);
    }

    #[test]
    fn recovery_selector_handles_unknown_and_degenerate_cases() {
        // Failure of a committee the engine never saw is a no-op.
        let shards: Vec<ShardInfo> = (0..6)
            .map(|i| shard(i, 50_000, 600.0 + 50.0 * f64::from(i)))
            .collect();
        let mut selector = SeRecoverySelector::adaptive(6, 0.6);
        selector.begin(&shards).unwrap();
        selector.on_failure(CommitteeId(99)).unwrap();
        assert!(selector.events().is_empty());
        // A single-shard epoch never builds an engine and admits the shard.
        let mut degenerate = SeRecoverySelector::adaptive(7, 0.6);
        degenerate.begin(&shards[..1]).unwrap();
        degenerate.advance(100);
        assert_eq!(degenerate.finish(), vec![CommitteeId(0)]);
    }

    #[test]
    fn defended_selector_runs_epochs_and_learns_distrust() {
        use mvcom_dataset::{AdversaryConfig, Misreport};
        use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 17).unwrap();
        let adversary = Misreport::new(AdversaryConfig::new(0.5, 17).unwrap());
        let mut selector = DefendedSeSelector::paper(17).unwrap();
        let mut lied = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let (report, reports) = selector.run_epoch(&mut sim, &adversary).unwrap();
            assert!(report.final_block.committed);
            lied.extend(
                reports
                    .iter()
                    .filter(|r| r.adversarial)
                    .map(|r| r.committee()),
            );
        }
        assert!(!lied.is_empty());
        // At least one persistent liar must have lost trust by now.
        assert!(
            lied.iter().any(|&c| selector.defense.trust(c) < 1.0),
            "defense never discounted a liar"
        );
    }

    #[test]
    fn defended_selector_is_deterministic() {
        use mvcom_dataset::{AdversaryConfig, Starver};
        use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim};
        let run = || {
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
            let adversary = Starver::new(AdversaryConfig::new(0.33, 19).unwrap());
            let mut selector = DefendedSeSelector::paper(19).unwrap();
            selector.selector.se = SeConfig::fast_test(19);
            let mut reports = Vec::new();
            for _ in 0..3 {
                reports.push(selector.run_epoch(&mut sim, &adversary).unwrap());
            }
            (
                reports,
                serde_json::to_string(&selector.defense.checkpoint()).unwrap(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn prelude_compiles_and_exposes_key_types() {
        use crate::prelude::*;
        let _ = SeConfig::paper(0);
        let _ = DynamicsPolicy::Trim;
        let _: fn() -> GreedySolver = GreedySolver::new;
    }
}
