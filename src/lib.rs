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
//! | scheduler | [`mvcom_core`] | the MVCom problem, the Stochastic-Exploration engine, the final committee's admission procedure, online dynamics, theory |
//! | baselines | [`mvcom_baselines`] | SA, DP, WOA, greedy, exhaustive |
//! | service | [`mvcom_daemon`] | the long-running scheduling daemon: streaming ingest, crash-safe epoch history, metrics endpoint |
//! | protocol | [`mvcom_elastico`] | the five-stage sharding epoch (PoW, formation, PBFT, final consensus, randomness) |
//! | consensus | [`mvcom_pbft`] | single-decision PBFT with view changes and Byzantine behaviours |
//! | substrate | [`mvcom_simnet`] | discrete-event engine, P2P network, latency models, statistics |
//! | data | [`mvcom_dataset`] | Bitcoin-like transaction trace and epoch shard sampling |
//! | types | [`mvcom_types`] | shared ids, time, latency, errors |
//!
//! This facade crate re-exports the public API and contributes the glue
//! the layering keeps out of the lower crates: [`SeSelector`], which binds
//! the final committee ([`mvcom_core::admission::FinalCommittee`]), with or
//! without its defense, to Elastico's one stage-4 seam, [`ShardSelector`].
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

#![warn(missing_docs)]
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::disallowed_types,
        reason = "unit tests compare floats bit for bit and use hash sets and locks as scaffolding"
    )
)]

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

use mvcom_core::admission::{Admission, Capacity, Decision, EpochPolicy, FinalCommittee};
use mvcom_core::defense::DefenseEngine;
use mvcom_core::dynamics::EventRecord;
use mvcom_core::se::{SeCheckpoint, SeConfig};
use mvcom_elastico::epoch::{ShardSelector, WaitForAll};
use mvcom_obs::Obs;
use mvcom_types::{CommitteeId, CommitteeReport, EpochId, Result as MvResult, ShardInfo};

/// Everything most programs need, one import away.
pub mod prelude {
    pub use mvcom_baselines::{
        DpSolver, ExhaustiveSolver, GreedySolver, SaSolver, Solver, SolverOutcome, WoaSolver,
    };
    pub use mvcom_core::admission::{Admission, Capacity, EpochPolicy, FinalCommittee};
    pub use mvcom_core::defense::{
        DefenseCheckpoint, DefenseConfig, DefenseEngine, DefenseObservation, ScreenedReport,
    };
    pub use mvcom_core::dynamics::{run_online, DynamicsPolicy, EventKind, TimedEvent};
    pub use mvcom_core::epoch_chain::{EpochChain, EpochChainConfig, EpochOutcome};
    pub use mvcom_core::problem::InstanceBuilder;
    pub use mvcom_core::se::{SeCheckpoint, SeConfig, SeEngine, SeOutcome};
    pub use mvcom_core::{DdlPolicy, Instance, Solution};
    pub use mvcom_dataset::{
        build_adversary, Adversary, AdversaryConfig, CommitteeReport, EpochGenerator, Freerider,
        LatencyConfig, Misreport, Starver, StrategicPopulation, Trace, TraceConfig,
    };
    pub use mvcom_elastico::detector::{CommitteeHealth, HeartbeatConfig, HeartbeatMonitor};
    pub use mvcom_elastico::epoch::{
        ElasticoConfig, ElasticoSim, EpochEnv, ShardSelector, WaitForAll,
    };
    pub use mvcom_elastico::recovery::{
        submission_node, RecoveryConfig, RobustnessReport, FINAL_NODE,
    };
    pub use mvcom_obs::{Obs, ObsLevel};
    pub use mvcom_simnet::{ChaosConfig, ChaosInjector, ChaosStats, CrashEvent};
    pub use mvcom_types::{
        CommitteeId, EpochId, Error, Hash32, NodeId, Result, ShardInfo, SimTime, TwoPhaseLatency,
    };

    pub use crate::metrics::{ChainMetrics, RobustnessMetrics, ScheduleMetrics};
    pub use crate::{DefendedSeSelector, SeSelector};
}

/// The arrival cutoff `N_max` of the batch question, as a fraction of the
/// submitted shards (paper §VI-A: 80%).
const N_MAX_FRACTION: f64 = 0.8;

/// The MVCom Stochastic-Exploration scheduler as an Elastico final
/// committee — the paper's system, end to end. The per-epoch procedure is
/// [`FinalCommittee`]; this type binds it to Elastico's stage-4 seam,
/// [`ShardSelector`], whichever runner drives it.
///
/// Asked the batch question ([`ShardSelector::select`]) it has the final
/// committee decide the epoch over the earliest `N_max` screened arrivals
/// (Alg. 1 lines 29–30), `N_min` and `Ĉ` scaled to them. With a defense
/// ([`DefendedSeSelector`]) the committee screens the reports first and
/// learns when the epoch settles ([`ShardSelector::settle`]).
///
/// Under chaos delivery ([`mvcom_elastico::recovery`]) an undefended
/// selector keeps an admission open from `begin` to `finish` (no cutoff:
/// the runner's deadline decides who submitted). A committee the heartbeat
/// detector declares failed mid-epoch has the engine checkpointed, sent
/// through `serde_json` and restored (as a killed solver process, §IV-D),
/// then trimmed out of the solution space ([`DynamicsPolicy::Trim`](prelude::DynamicsPolicy::Trim),
/// §V); the utility perturbation is an [`EventRecord`], for Theorem 2's
/// bound. A defended selector answers the batch question at `finish`.
///
/// # Example
///
/// ```
/// use mvcom::prelude::*;
/// let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 11)?;
/// let mut selector = SeSelector::paper(11);
/// let (report, _) = sim.run_epoch_in(&mut selector, &EpochEnv::default())?;
/// assert!(report.final_block.committed && !report.final_block.included.is_empty());
/// # Ok::<(), mvcom::Error>(())
/// ```
#[derive(Debug)]
pub struct SeSelector {
    /// The SE engine configuration.
    pub se: SeConfig,
    /// How each epoch is posed and screened, and where SE telemetry goes.
    pub committee: FinalCommittee,
    /// The epoch the next screen runs in: the one after the last settled.
    epoch: EpochId,
    /// The last batch decision, until the epoch settles.
    decision: Option<Decision>,
    admission: Option<Admission>,
    events: Vec<EventRecord>,
    chains_restored: usize,
}

/// A [`SeSelector`] with a defense ([`SeSelector::with_defense`]), as
/// `mvcom simulate --adv-fraction … --defense on` runs it.
///
/// # Example
///
/// ```
/// use mvcom::prelude::*;
/// let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 13)?;
/// let adversary = Misreport::new(AdversaryConfig::new(0.25, 13)?);
/// let defense = DefenseEngine::new(DefenseConfig::paper())?;
/// let mut selector: DefendedSeSelector = SeSelector::paper(13).with_defense(defense);
/// let env = EpochEnv { adversary: Some(&adversary), ..EpochEnv::default() };
/// let (report, reports) = sim.run_epoch_in(&mut selector, &env)?;
/// assert!(report.final_block.committed && !report.final_block.included.is_empty());
/// assert!(reports.iter().any(|r| r.adversarial));
/// # Ok::<(), mvcom::Error>(())
/// ```
pub type DefendedSeSelector = SeSelector;

impl SeSelector {
    /// The paper's §VI-A defaults: `α = 1.5`, `Ĉ = 1000·|I|`,
    /// `N_min = 50%·|I|`, `N_max = 80%`.
    pub fn paper(seed: u64) -> SeSelector {
        SeSelector {
            se: SeConfig::paper(seed),
            committee: FinalCommittee {
                policy: EpochPolicy::paper(),
                defense: None,
                obs: Obs::off(),
            },
            epoch: EpochId::GENESIS,
            decision: None,
            admission: None,
            events: Vec::new(),
            chains_restored: 0,
        }
    }

    /// Attaches a telemetry handle: each epoch's SE run emits the `se_*`
    /// events documented in OBSERVABILITY.md, and each handled failure the
    /// `se_checkpoint_save` / `se_checkpoint_restore` / `se_dynamic`
    /// sequence. A defense keeps the handle it was built with.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> SeSelector {
        self.committee.obs = obs;
        self
    }

    /// A workload-adaptive selector: `Ĉ` is the given fraction of the
    /// submitted transaction load, so the knapsack stays active whatever
    /// the shard sizes are. Suitable for driving [`ElasticoSim`] epochs,
    /// whose shards carry the full trace.
    ///
    /// [`ElasticoSim`]: mvcom_elastico::epoch::ElasticoSim
    pub fn adaptive(seed: u64, load_fraction: f64) -> SeSelector {
        let mut selector = SeSelector::paper(seed);
        selector.committee.policy.capacity = Capacity::FractionOfLoad(load_fraction);
        selector
    }

    /// Screens every formation-time report through `defense` before SE
    /// sees it, and feeds it realized-vs-reported evidence once each epoch
    /// settles: a [`DefendedSeSelector`].
    #[must_use]
    pub fn with_defense(mut self, defense: DefenseEngine) -> SeSelector {
        self.committee.defense = Some(defense);
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
}

impl ShardSelector for SeSelector {
    fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
        let (epoch, cutoff) = (self.epoch.value(), Some(N_MAX_FRACTION));
        match self.committee.decide(epoch, shards, None, cutoff, self.se) {
            Ok(admission) => self.decision.insert(admission.finish()).admitted.clone(),
            // `select` has no error channel: an epoch that cannot be posed
            // (a repeated committee, a refused SE config) admits them all.
            Err(_) => WaitForAll.select(shards),
        }
    }

    fn begin(&mut self, shards: &[ShardInfo]) -> MvResult<()> {
        if self.committee.defense.is_some() {
            // Screened and decided once, over the survivors, at `finish`.
            return Ok(());
        }
        let FinalCommittee { policy, obs, .. } = &self.committee;
        let n_min = policy.n_min(shards.len());
        let capacity = policy.capacity.of(shards);
        let posed = shards.to_vec();
        let admission =
            Admission::open(policy, shards, posed, n_min, capacity, self.se, obs.clone());
        self.admission = Some(admission?);
        Ok(())
    }

    fn advance(&mut self, iterations: u64) {
        if let Some(admission) = &mut self.admission {
            admission.advance(iterations);
        }
    }

    fn on_failure(&mut self, committee: CommitteeId) -> MvResult<()> {
        let Some(admission) = &mut self.admission else {
            return Ok(());
        };
        let solving = admission
            .engine()
            .filter(|e| e.instance().index_of(committee).is_some());
        let Some(engine) = solving else {
            // No engine solves over it; at most the admit-all set shrinks.
            admission.leave(committee);
            return Ok(());
        };
        let utility_before = engine.current_best_utility();
        let at_iteration = engine.iteration();
        // The failure kills the solver process along with the committee:
        // round-trip the version-stamped checkpoint through serialization
        // and restore, as a replacement process would.
        let json = serde_json::to_string(&engine.checkpoint())
            .map_err(|e| Error::simulation(format!("checkpoint encode failed: {e}")))?;
        let ckpt: SeCheckpoint = serde_json::from_str(&json)
            .map_err(|e| Error::simulation(format!("checkpoint decode failed: {e}")))?;
        self.chains_restored += admission.restore(&ckpt)?;
        // §V solution-space surgery: trim the dead committee, keep going.
        // A trimmed epoch the scheduler cannot pose (e.g. too few
        // survivors) degrades to admit-all-survivors and records nothing.
        admission.leave(committee);
        if let Some(engine) = admission.engine() {
            self.events.push(EventRecord {
                at_iteration,
                utility_before,
                utility_after: engine.current_best_utility(),
                is_join: false,
            });
        }
        Ok(())
    }

    fn finish(&mut self, survivors: &[ShardInfo]) -> Vec<CommitteeId> {
        // Every detected failure was already trimmed out of the open
        // admission; a defended selector asks the batch question here.
        match self.admission.take() {
            Some(admission) => admission.finish().admitted,
            None => self.select(survivors),
        }
    }

    /// Settles the last batch decision ([`FinalCommittee::settle`]).
    fn settle(&mut self, epoch: EpochId, reports: &[CommitteeReport], _included: &[CommitteeId]) {
        if let Some(decision) = self.decision.take() {
            self.committee.settle(epoch.value(), reports, &decision);
        }
        self.epoch = epoch.next();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_core::admission::cutoff;
    use mvcom_core::defense::DefenseConfig;
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
    fn a_refused_engine_config_selects_like_vanilla_elastico() {
        // `open` returns `Err` for Γ = 0; `select` has no error channel.
        let shards: Vec<ShardInfo> = (0..10)
            .map(|i| shard(i, 800, 500.0 + 100.0 * f64::from(i)))
            .collect();
        let mut selector = SeSelector::paper(9);
        selector.se = selector.se.with_gamma(0);
        assert_eq!(selector.select(&shards), WaitForAll.select(&shards));
        assert!(selector.begin(&shards).is_err());
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
    fn select_is_cutoff_then_the_open_admission_run_to_its_budget() {
        let shards: Vec<ShardInfo> = (0..15)
            .map(|i| {
                shard(
                    i,
                    90_000 + 1_000 * u64::from(i),
                    3_400.0 - 200.0 * f64::from(i),
                )
            })
            .collect();
        let batch = SeSelector::adaptive(8, 0.6).select(&shards);
        let mut online = SeSelector::adaptive(8, 0.6);
        let kept = cutoff(&shards, N_MAX_FRACTION);
        online.begin(&kept).unwrap();
        online.advance(online.se.max_iterations);
        assert_eq!(batch, online.finish(&kept));
        assert!(batch.len() >= 6 && batch.len() < 12, "{batch:?}");
        // The three slowest arrivals (ids 0–2) were never listened to.
        assert!(batch.iter().all(|c| c.0 >= 3), "{batch:?}");
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
        let mut selector = SeSelector::adaptive(4, 0.6);
        selector.begin(&shards).unwrap();
        selector.advance(2_000);
        let included = selector.finish(&shards);
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
        let mut selector = SeSelector::adaptive(5, 0.6);
        selector.begin(&shards).unwrap();
        selector.advance(300);
        selector.on_failure(CommitteeId(3)).unwrap();
        selector.advance(1_000);
        let included = selector.finish(&shards);
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
        let mut selector = SeSelector::adaptive(6, 0.6);
        selector.begin(&shards).unwrap();
        selector.on_failure(CommitteeId(99)).unwrap();
        assert!(selector.events().is_empty());
        // A single-shard epoch never builds an engine and admits the shard.
        let mut degenerate = SeSelector::adaptive(7, 0.6);
        degenerate.begin(&shards[..1]).unwrap();
        degenerate.advance(100);
        assert_eq!(degenerate.finish(&shards[..1]), vec![CommitteeId(0)]);
    }

    fn defended(seed: u64) -> SeSelector {
        SeSelector::paper(seed).with_defense(DefenseEngine::new(DefenseConfig::paper()).unwrap())
    }

    fn defense(selector: &SeSelector) -> &DefenseEngine {
        selector.committee.defense.as_ref().unwrap()
    }

    #[test]
    fn defended_selector_runs_epochs_and_learns_distrust() {
        use mvcom_dataset::{AdversaryConfig, Misreport};
        use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim, EpochEnv};
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 17).unwrap();
        let adversary = Misreport::new(AdversaryConfig::new(0.5, 17).unwrap());
        let env = EpochEnv {
            adversary: Some(&adversary),
            ..EpochEnv::default()
        };
        let mut selector = defended(17);
        let mut lied = std::collections::BTreeSet::new();
        for _ in 0..4 {
            let (report, reports) = sim.run_epoch_in(&mut selector, &env).unwrap();
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
            lied.iter().any(|&c| defense(&selector).trust(c) < 1.0),
            "defense never discounted a liar"
        );
    }

    #[test]
    fn defended_selector_is_deterministic() {
        use mvcom_dataset::{AdversaryConfig, Starver};
        use mvcom_elastico::epoch::{ElasticoConfig, ElasticoSim, EpochEnv};
        let run = || {
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
            let adversary = Starver::new(AdversaryConfig::new(0.33, 19).unwrap());
            let env = EpochEnv {
                adversary: Some(&adversary),
                ..EpochEnv::default()
            };
            let mut selector = defended(19);
            selector.se = SeConfig::fast_test(19);
            let mut reports = Vec::new();
            for _ in 0..3 {
                reports.push(sim.run_epoch_in(&mut selector, &env).unwrap());
            }
            (
                reports,
                serde_json::to_string(&defense(&selector).checkpoint()).unwrap(),
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
