//! Multi-epoch scheduling with cross-epoch DDL carry-over (paper Fig. 3).
//!
//! The MVCom objective (paper eq. (2)) sums over all epochs `j ∈ J`, and
//! §III-A specifies how the epochs couple: *"if `C_i` was not permitted in
//! epoch `j`, its two-phase latency will be updated by reducing the
//! previous DDL in epoch `j+1`. Thus, a refused committee will be more
//! likely to be permitted with a new smaller two-phase latency at epoch
//! `j+1`."*
//!
//! [`EpochChain`] implements exactly that bookkeeping: each epoch merges
//! freshly arrived shards with the carried-over refusals (latencies
//! reduced by the previous deadline, clamped at zero), has the
//! [`FinalCommittee`] decide the epoch, and queues this epoch's
//! refusals for the next. The per-epoch [`EpochOutcome`]s accumulate the
//! paper's two performance quantities — admitted throughput and
//! cumulative age.

use std::collections::BTreeSet;

use serde::Serialize;

use mvcom_obs::Obs;
use mvcom_types::{EpochId, Result, ShardInfo, SimTime};

use crate::admission::{EpochPolicy, FinalCommittee};
use crate::problem::DdlPolicy;
use crate::se::SeConfig;

/// Refusals older than this many epochs are dropped (their clients are
/// assumed to re-submit).
const MAX_CARRY_EPOCHS: u32 = 4;

/// Configuration of a multi-epoch scheduling run; refusals are carried up
/// to 4 epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochChainConfig {
    /// How each epoch is posed; `N_min` and `Ĉ` scale with everything
    /// that entered the epoch, fresh and carried.
    pub policy: EpochPolicy,
    /// SE engine settings (the seed is advanced per epoch).
    pub se: SeConfig,
}

impl EpochChainConfig {
    /// The paper's defaults: `α = 1.5`, `Ĉ = 1000·|I|`, `N_min = 50 %`,
    /// MaxArrival deadline.
    pub fn paper(seed: u64) -> EpochChainConfig {
        EpochChainConfig {
            policy: EpochPolicy::paper(),
            se: SeConfig::paper(seed),
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`](mvcom_types::Error::InvalidConfig) naming
    /// the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.policy.validate()?;
        self.se.validate()
    }
}

/// A refused shard waiting to re-enter, with its age bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CarriedShard {
    shard: ShardInfo,
    /// Epochs this shard has been refused so far.
    refusals: u32,
}

/// What one epoch produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EpochOutcome {
    /// The epoch index.
    pub epoch: EpochId,
    /// Shards that entered this epoch (fresh + carried).
    pub arrived: usize,
    /// How many of the arrived shards were carried over from refusals.
    pub carried_in: usize,
    /// The epoch deadline `t_j`.
    pub ddl: SimTime,
    /// Admitted shards (the final block's content).
    pub admitted: Vec<ShardInfo>,
    /// Refused shards queued for the next epoch (post carry-over latency
    /// reduction).
    pub carried_out: usize,
    /// The converged utility of this epoch's schedule.
    pub utility: f64,
    /// Total admitted transactions.
    pub admitted_txs: u64,
    /// Total cumulative age of the admitted transactions.
    pub cumulative_age: f64,
}

/// The multi-epoch scheduler.
///
/// # Example
///
/// ```
/// use mvcom_core::epoch_chain::{EpochChain, EpochChainConfig};
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// # fn main() -> Result<(), mvcom_types::Error> {
/// let mut chain = EpochChain::new(EpochChainConfig::paper(1))?;
/// let epoch0: Vec<ShardInfo> = (0..12).map(|i| ShardInfo::new(
///     CommitteeId(i), 1_000,
///     TwoPhaseLatency::from_total(SimTime::from_secs(600.0 + 40.0 * f64::from(i))),
/// )).collect();
/// let outcome = chain.run_epoch(epoch0)?;
/// assert!(!outcome.admitted.is_empty());
/// // Refused committees re-enter the next epoch with reduced latency.
/// assert_eq!(chain.pending(), outcome.carried_out);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EpochChain {
    config: EpochChainConfig,
    pending: Vec<CarriedShard>,
    epoch: EpochId,
}

impl EpochChain {
    /// Creates a chain scheduler.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation.
    pub fn new(config: EpochChainConfig) -> Result<EpochChain> {
        config.validate()?;
        Ok(EpochChain {
            config,
            pending: Vec::new(),
            epoch: EpochId::GENESIS,
        })
    }

    /// Number of refused shards currently waiting to re-enter.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The next epoch to be scheduled.
    pub fn current_epoch(&self) -> EpochId {
        self.epoch
    }

    /// Schedules one epoch: merges `fresh` shards with the carried-over
    /// refusals, has a [`FinalCommittee`] without a defense decide it (no
    /// cutoff; `Ĉ` scales with every merged shard), and queues this epoch's
    /// refusals (with their latencies reduced by the epoch deadline, per
    /// Fig. 3).
    ///
    /// Committees appearing both fresh and carried keep the *fresh* entry
    /// (they re-formed this epoch; the stale refusal is dropped). A
    /// degenerate epoch — fewer than two shards, or none that fit the
    /// constraints — admits everything and carries nothing forward.
    ///
    /// # Errors
    ///
    /// [`FinalCommittee::decide`]'s: a committee repeated within `fresh`,
    /// a shard of infinite latency.
    pub fn run_epoch(&mut self, fresh: Vec<ShardInfo>) -> Result<EpochOutcome> {
        let mut shards = fresh;
        let fresh_ids: BTreeSet<_> = shards.iter().map(|s| s.committee()).collect();
        let carried: Vec<CarriedShard> = self
            .pending
            .drain(..)
            .filter(|c| !fresh_ids.contains(&c.shard.committee()))
            .collect();
        let carried_in = carried.len();
        shards.extend(carried.iter().map(|c| c.shard));

        let n = shards.len();
        let policy = self.config.policy;
        let se = SeConfig {
            seed: self.config.se.seed ^ self.epoch.value().wrapping_mul(0x9E37_79B9),
            ..self.config.se
        };
        let mut committee = FinalCommittee {
            policy,
            defense: None,
            obs: Obs::off(),
        };
        let admission = committee.decide(self.epoch.value(), &shards, None, None, se)?;
        let decision = admission.finish();

        let admitted_ids: BTreeSet<_> = decision.admitted.into_iter().collect();
        let (admitted, refused): (Vec<ShardInfo>, Vec<ShardInfo>) = shards
            .into_iter()
            .partition(|s| admitted_ids.contains(&s.committee()));
        // The posed instance's cumulative age: its deadline, in shard order.
        let secs = |s: &ShardInfo| s.two_phase_latency().as_secs();
        let t = match policy.ddl_policy {
            DdlPolicy::MaxArrival => decision.ddl.as_secs(),
            DdlPolicy::MaxSelected => admitted.iter().map(secs).fold(0.0, f64::max),
        };
        let cumulative_age = admitted.iter().map(|s| (t - secs(s)).max(0.0)).sum();
        // Fig. 3 carry-over: refused latency is reduced by this epoch's
        // DDL; committees refused too many times are dropped.
        let refusal_count = |committee| {
            carried
                .iter()
                .find(|c| c.shard.committee() == committee)
                .map_or(0, |c| c.refusals)
        };
        self.pending = refused
            .into_iter()
            .map(|s| CarriedShard {
                refusals: refusal_count(s.committee()) + 1,
                shard: s.carried_over(decision.ddl),
            })
            .filter(|c| c.refusals <= MAX_CARRY_EPOCHS)
            .collect();

        let report = EpochOutcome {
            epoch: self.epoch,
            arrived: n,
            carried_in,
            ddl: decision.ddl,
            admitted_txs: admitted.iter().map(|s| s.tx_count()).sum(),
            cumulative_age,
            carried_out: self.pending.len(),
            utility: decision.utility,
            admitted,
        };
        self.epoch = self.epoch.next();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Capacity;
    use mvcom_types::{CommitteeId, TwoPhaseLatency};

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn epoch(base_id: u32, n: usize) -> Vec<ShardInfo> {
        (0..n)
            .map(|i| {
                shard(
                    base_id + i as u32,
                    800 + (i as u64 * 53) % 600,
                    300.0 + ((i as f64) * 173.0) % 900.0,
                )
            })
            .collect()
    }

    fn config(seed: u64) -> EpochChainConfig {
        EpochChainConfig {
            se: SeConfig::fast_test(seed),
            ..EpochChainConfig::paper(seed)
        }
    }

    #[test]
    fn single_epoch_partitions_shards() {
        let mut chain = EpochChain::new(config(1)).unwrap();
        let outcome = chain.run_epoch(epoch(0, 16)).unwrap();
        assert_eq!(outcome.epoch, EpochId::GENESIS);
        assert_eq!(outcome.arrived, 16);
        assert_eq!(outcome.carried_in, 0);
        assert_eq!(outcome.admitted.len() + outcome.carried_out, 16);
        assert!(outcome.admitted.len() >= 8); // N_min = 50%
        assert_eq!(chain.current_epoch(), EpochId(1));
    }

    #[test]
    fn refusals_re_enter_with_reduced_latency() {
        let mut chain = EpochChain::new(config(2)).unwrap();
        let first = chain.run_epoch(epoch(0, 16)).unwrap();
        if first.carried_out == 0 {
            return; // everything admitted; nothing to check
        }
        let pending_before: Vec<ShardInfo> = chain.pending.iter().map(|c| c.shard).collect();
        // Carried latencies are the refused originals minus the DDL.
        for p in &pending_before {
            assert!(p.two_phase_latency() <= first.ddl);
        }
        let second = chain.run_epoch(epoch(100, 12)).unwrap();
        assert_eq!(second.carried_in, pending_before.len());
        assert_eq!(second.arrived, 12 + pending_before.len());
    }

    #[test]
    fn fresh_submission_supersedes_stale_refusal() {
        let mut chain = EpochChain::new(config(3)).unwrap();
        chain.run_epoch(epoch(0, 16)).unwrap();
        let refused_ids: Vec<CommitteeId> =
            chain.pending.iter().map(|c| c.shard.committee()).collect();
        if refused_ids.is_empty() {
            return;
        }
        // The refused committee re-submits fresh with a new shard.
        let mut fresh = epoch(200, 10);
        fresh.push(shard(refused_ids[0].0, 999, 111.0));
        let outcome = chain.run_epoch(fresh).unwrap();
        // No duplicate committee entered the epoch.
        assert_eq!(outcome.arrived, 11 + refused_ids.len() - 1);
    }

    #[test]
    fn old_refusals_are_eventually_dropped() {
        let mut chain = EpochChain::new(config(4)).unwrap();
        chain.run_epoch(epoch(0, 16)).unwrap();
        // Epoch `e` submits committees `100·e ..`; after `MAX_CARRY_EPOCHS`
        // more epochs, nothing from epoch 0 may remain pending.
        for e in 1..=MAX_CARRY_EPOCHS {
            chain.run_epoch(epoch(100 * e, 12)).unwrap();
            for c in &chain.pending {
                assert!(c.refusals <= MAX_CARRY_EPOCHS);
                // Submitted at epoch `c.committee / 100`, refused every epoch since.
                assert_eq!(c.refusals, e - c.shard.committee().0 / 100 + 1);
            }
        }
        for c in &chain.pending {
            assert!(c.shard.committee().0 >= 100);
        }
    }

    #[test]
    fn carry_over_makes_refusals_more_attractive() {
        // A shard with near-zero carried latency has age ≈ DDL... i.e. the
        // largest age; per eq. (1) the *later* arrivals are favoured, so a
        // carried shard competes on its (unchanged) size. Verify at least
        // the accounting: the carried shard's marginal utility changed by
        // exactly the latency reduction.
        let mut chain = EpochChain::new(config(5)).unwrap();
        let outcome = chain.run_epoch(epoch(0, 16)).unwrap();
        if chain.pending.is_empty() {
            return;
        }
        let carried = chain.pending[0].shard;
        let original = epoch(0, 16)
            .into_iter()
            .find(|s| s.committee() == carried.committee())
            .unwrap();
        let reduction = original.two_phase_latency() - carried.two_phase_latency();
        assert!(
            (reduction.as_secs()
                - outcome
                    .ddl
                    .as_secs()
                    .min(original.two_phase_latency().as_secs()))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn multi_epoch_run_is_stable() {
        let mut chain = EpochChain::new(config(6)).unwrap();
        let mut total_txs = 0u64;
        for e in 0..5u32 {
            let outcome = chain.run_epoch(epoch(e * 1_000, 14)).unwrap();
            assert!(outcome.admitted_txs > 0);
            assert!(outcome.cumulative_age >= 0.0);
            total_txs += outcome.admitted_txs;
        }
        assert!(total_txs > 0);
        assert_eq!(chain.current_epoch(), EpochId(5));
    }

    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV of each epoch's serialized `EpochOutcome`, and `pending()` after
    /// it, over six chained epochs with carry-over. Captured at bf43591,
    /// when `run_epoch` built and ran its own engine; the chain now solves
    /// through `Admission` and must not move a byte. Each epoch has a
    /// 4,000 s straggler, so the two deadline policies settle differently.
    #[test]
    fn six_chained_epochs_keep_the_pinned_outcomes() {
        let pinned = [
            (
                DdlPolicy::MaxArrival,
                [
                    (0x32de_fe2b_47b0_b567, 6),
                    (0x849d_50c0_6565_645e, 10),
                    (0x0697_649a_d6de_b840, 12),
                    (0x611f_71b9_cbb3_702d, 14),
                    (0x2e33_651e_e6bb_e40e, 10),
                    (0xbf84_4687_1fc1_dcfd, 10),
                ],
            ),
            (
                DdlPolicy::MaxSelected,
                [
                    (0x8f0a_489b_aecf_4400, 2),
                    (0xd598_5f02_a2d8_811d, 1),
                    (0x1feb_3f7d_6bf7_8436, 1),
                    (0xb1a3_cd5c_3d8f_3c89, 1),
                    (0x9372_ea3f_1778_38b3, 1),
                    (0x10bf_81b1_1071_ebf9, 1),
                ],
            ),
        ];
        for (ddl_policy, expected) in pinned {
            let mut cfg = config(7);
            cfg.policy.ddl_policy = ddl_policy;
            let mut chain = EpochChain::new(cfg).unwrap();
            let got: Vec<(u64, usize)> = (0..6u32)
                .map(|e| {
                    let mut fresh = epoch(100 * e, 12 + e as usize);
                    fresh.push(shard(100 * e + 99, 900, 4_000.0));
                    let outcome = chain.run_epoch(fresh).unwrap();
                    (
                        fnv(&serde_json::to_string(&outcome).unwrap()),
                        chain.pending(),
                    )
                })
                .collect();
            assert_eq!(got, expected, "{ddl_policy:?}");
        }
    }

    #[test]
    fn an_infeasible_epoch_admits_everything_and_carries_nothing() {
        let mut chain = EpochChain::new(config(8)).unwrap();
        chain.run_epoch(epoch(0, 16)).unwrap();
        let carried = chain.pending();
        assert!(carried > 0);
        // Ĉ = |I| txs, below the smallest shard (800 txs): no selection of
        // N_min shards fits.
        chain.config.policy.capacity = Capacity::PerCommittee(1);
        let fresh = epoch(100, 6);
        let outcome = chain.run_epoch(fresh).unwrap();
        assert_eq!(outcome.arrived, 6 + carried);
        assert_eq!(outcome.admitted.len(), outcome.arrived);
        assert_eq!((outcome.carried_out, chain.pending()), (0, 0));
        assert_eq!(chain.current_epoch(), EpochId(2));
    }

    #[test]
    fn an_empty_epoch_settles_to_an_empty_outcome() {
        let mut chain = EpochChain::new(config(9)).unwrap();
        let outcome = chain.run_epoch(Vec::new()).unwrap();
        assert_eq!((outcome.arrived, outcome.carried_in), (0, 0));
        assert!(outcome.admitted.is_empty());
        assert_eq!((outcome.carried_out, outcome.admitted_txs), (0, 0));
        assert_eq!(outcome.ddl, SimTime::ZERO);
        assert_eq!((outcome.utility, outcome.cumulative_age), (0.0, 0.0));
        assert_eq!(chain.current_epoch(), EpochId(1));
    }

    #[test]
    fn a_repeated_fresh_committee_is_still_an_error() {
        let mut chain = EpochChain::new(config(10)).unwrap();
        let mut fresh = epoch(0, 8);
        fresh.push(fresh[3]);
        let err = chain.run_epoch(fresh).unwrap_err().to_string();
        assert!(err.contains("duplicate shard for committee-3"), "{err}");
        // A shard of infinite latency is refused the same way.
        let mut fresh = epoch(0, 8);
        fresh.push(ShardInfo::new(
            CommitteeId(50),
            900,
            TwoPhaseLatency::from_total(SimTime::INFINITY),
        ));
        assert!(chain.run_epoch(fresh).is_err());
    }

    #[test]
    fn config_validation() {
        let mut c = EpochChainConfig::paper(0);
        c.policy.alpha = 0.0;
        assert!(c.validate().is_err());
        let mut c = EpochChainConfig::paper(0);
        c.policy.n_min_fraction = 1.5;
        assert!(c.validate().is_err());
        assert!(EpochChainConfig::paper(0).validate().is_ok());
    }
}
