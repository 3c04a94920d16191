//! The final committee's per-epoch procedure (Alg. 1 lines 22–30), once.
//!
//! [`FinalCommittee::decide`] screens the reports, stops listening at
//! `N_max`, requires `N_min`, caps the block at `Ĉ`, runs SE and admits the
//! converged set — or, for a degenerate epoch (fewer than two shards, or
//! no selection satisfies the constraints), everything that arrived, like
//! vanilla Elastico. An epoch that cannot be posed (a repeated committee,
//! an infinite latency) or an SE configuration the engine refuses is an
//! error. [`FinalCommittee::settle`] lets the defense learn from how the
//! epoch settled. The facade's `SeSelector`, the daemon, the `fig_adv`
//! arms and [`EpochChain`](crate::epoch_chain::EpochChain) all run it; what
//! differs between them is data passed in (DESIGN.md §6d).
//!
//! [`EpochPolicy`] poses an epoch; [`Admission`] is a posed epoch being
//! solved — the object a caller keeps while committees fail (or, for a
//! warm-started service, join) and settles with [`Admission::finish`].

use std::collections::BTreeSet;

use mvcom_obs::Obs;
use mvcom_types::{CommitteeId, CommitteeReport, Error, Result, ShardInfo, SimTime};

use crate::defense::{DefenseEngine, DefenseObservation};
use crate::dynamics::DynamicsPolicy;
use crate::problem::{DdlPolicy, Instance, InstanceBuilder};
use crate::se::{SeCheckpoint, SeConfig, SeEngine};

/// How an epoch's final-block capacity `Ĉ` is derived.
///
/// The paper's experiments fix `Ĉ = 1000·|I_j|` because its dataset packs
/// ~1000 TXs per shard; real epochs have shard sizes set by the workload,
/// so a fraction-of-load rule keeps the knapsack meaningfully tight at any
/// scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Capacity {
    /// `Ĉ = per_committee · |I_j|` — the paper's rule.
    PerCommittee(u64),
    /// `Ĉ = fraction · Σ_i s_i`; the fraction is clamped to `(0, 1]`.
    FractionOfLoad(f64),
}

impl Capacity {
    /// `Ĉ` for an epoch whose capacity scales with `shards` — the caller
    /// decides whether that is the arrivals kept by the cutoff, the
    /// screened reports or the whole population.
    pub fn of(&self, shards: &[ShardInfo]) -> u64 {
        match *self {
            Capacity::PerCommittee(per) => per.saturating_mul(shards.len() as u64),
            Capacity::FractionOfLoad(fraction) => {
                let total: u64 = shards.iter().map(|s| s.tx_count()).sum();
                let f = fraction.clamp(f64::EPSILON, 1.0);
                ((total as f64) * f).round().max(1.0) as u64
            }
        }
    }
}

/// The knobs of one epoch's MVCom instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPolicy {
    /// The throughput weight `α`.
    pub alpha: f64,
    /// How the final-block capacity `Ĉ` is derived.
    pub capacity: Capacity,
    /// `N_min` as a fraction of the arrived committees (paper: 0.5).
    pub n_min_fraction: f64,
    /// Deadline semantics.
    pub ddl_policy: DdlPolicy,
}

impl EpochPolicy {
    /// The paper's §VI-A defaults: `α = 1.5`, `Ĉ = 1000·|I|`,
    /// `N_min = 50 %·|I|`, MaxArrival deadline.
    pub fn paper() -> EpochPolicy {
        EpochPolicy {
            alpha: 1.5,
            capacity: Capacity::PerCommittee(1_000),
            n_min_fraction: 0.5,
            ddl_policy: DdlPolicy::MaxArrival,
        }
    }

    /// Validates parameter domains.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(Error::invalid_config("alpha", "must be positive"));
        }
        if !(0.0..=1.0).contains(&self.n_min_fraction) {
            return Err(Error::invalid_config("n_min_fraction", "must be in [0, 1]"));
        }
        Ok(())
    }

    /// `N_min` for `arrived` committees: the fraction, rounded half up.
    pub fn n_min(&self, arrived: usize) -> usize {
        (arrived as f64 * self.n_min_fraction).round() as usize
    }

    /// Formulates the epoch over `shards`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidInstance`] / [`Error::Infeasible`] from
    /// [`InstanceBuilder::build`].
    pub fn pose(&self, shards: Vec<ShardInfo>, n_min: usize, capacity: u64) -> Result<Instance> {
        InstanceBuilder::new()
            .alpha(self.alpha)
            .capacity(capacity)
            .n_min(n_min)
            .ddl_policy(self.ddl_policy)
            .shards(shards)
            .build()
    }
}

/// The arrival cutoff `N_max` (Alg. 1 lines 29–30): the final committee
/// stops listening once the given fraction of committees has submitted.
/// Returns the earliest arrivals in arrival order — at least two, so the
/// kept set can still be scheduled.
pub fn cutoff(shards: &[ShardInfo], n_max_fraction: f64) -> Vec<ShardInfo> {
    // Not `clamp(2, len)`: that panics on an epoch of fewer than two shards.
    let keep = ((shards.len() as f64 * n_max_fraction).round() as usize)
        .max(2)
        .min(shards.len());
    let mut by_arrival = shards.to_vec();
    by_arrival.sort_by_key(|s| s.two_phase_latency());
    by_arrival.truncate(keep);
    by_arrival
}

/// What the final committee decided for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// The committees whose shards enter the final block.
    pub admitted: Vec<CommitteeId>,
    /// The utility of that selection.
    pub utility: f64,
    /// The epoch deadline `t_j`.
    pub ddl: SimTime,
    /// The `N_min` the epoch was posed under.
    pub n_min: usize,
    /// The capacity `Ĉ` the epoch was posed under.
    pub capacity: u64,
    /// The reports the defense quarantined, in report order.
    pub quarantined: Vec<CommitteeId>,
}

/// A posed epoch being solved: a live [`SeEngine`], or — for a degenerate
/// epoch — the set vanilla Elastico would admit.
#[derive(Debug)]
pub struct Admission {
    alpha: f64,
    n_min: usize,
    capacity: u64,
    quarantined: Vec<CommitteeId>,
    obs: Obs,
    state: State,
}

#[derive(Debug)]
enum State {
    Solving(Box<SeEngine>),
    AdmitAll(Vec<ShardInfo>),
}

impl Admission {
    /// Poses `posed` under `policy` and builds the SE engine over it.
    ///
    /// `arrived` is everything the final committee heard from — what the
    /// degenerate case admits; `posed` is what the scheduler chooses among
    /// (the same shards, or the ones [`cutoff`] kept). Fewer than two
    /// posed shards and an [`Error::Infeasible`] epoch are degenerate.
    ///
    /// # Errors
    ///
    /// [`EpochPolicy::pose`]'s [`Error::InvalidInstance`] (e.g. a repeated
    /// committee) and [`SeEngine::new`]'s [`Error::InvalidConfig`].
    pub fn open(
        policy: &EpochPolicy,
        arrived: &[ShardInfo],
        posed: Vec<ShardInfo>,
        n_min: usize,
        capacity: u64,
        se: SeConfig,
        obs: Obs,
    ) -> Result<Admission> {
        let engine = if posed.len() < 2 {
            Err(Error::infeasible("fewer than two shards to choose among"))
        } else {
            policy
                .pose(posed, n_min, capacity)
                .and_then(|instance| SeEngine::new(&instance, se))
        };
        let state = match engine {
            Ok(engine) => State::Solving(Box::new(engine.with_obs(obs.clone()))),
            Err(Error::Infeasible { .. }) => State::AdmitAll(arrived.to_vec()),
            Err(e) => return Err(e),
        };
        Ok(Admission {
            alpha: policy.alpha,
            n_min,
            capacity,
            quarantined: Vec::new(),
            obs,
            state,
        })
    }

    /// Up to `n` more SE rounds, stopping early on convergence.
    pub fn advance(&mut self, n: u64) {
        if let State::Solving(engine) = &mut self.state {
            engine.advance(n);
        }
    }

    /// A committee left or was declared failed. A live engine trims it out
    /// of the solution space ([`DynamicsPolicy::Trim`]) and keeps solving;
    /// if the survivors can no longer be posed, the admission degrades to
    /// admitting every survivor. A committee the epoch never contained is
    /// ignored.
    pub fn leave(&mut self, committee: CommitteeId) {
        match &mut self.state {
            State::AdmitAll(shards) => shards.retain(|s| s.committee() != committee),
            State::Solving(engine) => {
                let known = engine.instance().index_of(committee).is_some();
                if known
                    && engine
                        .handle_leave(committee, DynamicsPolicy::Trim)
                        .is_err()
                {
                    let survivors = engine.instance().shards().iter().copied();
                    self.state =
                        State::AdmitAll(survivors.filter(|s| s.committee() != committee).collect());
                }
            }
        }
    }

    /// Replaces the live engine by one rebuilt from `checkpoint` — the
    /// path a replacement solver process takes (paper §IV-D). Returns the
    /// chains restored (none for a degenerate admission).
    ///
    /// # Errors
    ///
    /// See [`SeEngine::from_checkpoint`]; the live engine is untouched.
    pub fn restore(&mut self, checkpoint: &SeCheckpoint) -> Result<usize> {
        let State::Solving(engine) = &mut self.state else {
            return Ok(0);
        };
        let restored = SeEngine::from_checkpoint(engine.instance(), *engine.config(), checkpoint)?
            .with_obs(self.obs.clone());
        **engine = restored;
        Ok(engine.restored_chains())
    }

    /// The live engine; `None` for a degenerate admission.
    pub fn engine(&self) -> Option<&SeEngine> {
        match &self.state {
            State::Solving(engine) => Some(engine),
            State::AdmitAll(_) => None,
        }
    }

    /// Settles the epoch: the engine's finalized best selection (Alg. 1
    /// lines 22–27), or everything that arrived with the MaxArrival
    /// objective of that full selection.
    pub fn finish(self) -> Decision {
        let (admitted, utility, ddl) = match self.state {
            State::Solving(engine) => {
                let (instance, outcome) = engine.settle();
                let admitted = instance.committees(&outcome.best_solution).collect();
                (admitted, outcome.best_utility, instance.ddl())
            }
            State::AdmitAll(shards) => {
                let secs = |s: &ShardInfo| s.two_phase_latency().as_secs();
                let ddl_s = shards.iter().map(secs).fold(0.0_f64, f64::max);
                let utility = shards
                    .iter()
                    .map(|s| self.alpha * s.tx_count() as f64 - (ddl_s - secs(s)))
                    .sum();
                let admitted = shards.iter().map(ShardInfo::committee).collect();
                (admitted, utility, SimTime::from_secs(ddl_s))
            }
        };
        Decision {
            admitted,
            utility,
            ddl,
            n_min: self.n_min,
            capacity: self.capacity,
            quarantined: self.quarantined,
        }
    }
}

/// How one epoch's reports settled beyond its [`Decision`]: each report
/// is admitted, quarantined or refused, and the `*_txs` fields sum true
/// sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Reports neither admitted nor quarantined.
    pub refused: u64,
    /// True transactions of the admitted reports.
    pub admitted_txs: u64,
    /// True transactions of the refused reports.
    pub refused_txs: u64,
    /// True transactions of the quarantined reports.
    pub quarantined_txs: u64,
}

/// The final committee of the [module docs](self).
#[derive(Debug)]
pub struct FinalCommittee {
    /// How each epoch is posed.
    pub policy: EpochPolicy,
    /// Screens reports and learns from each settled epoch, if on.
    pub defense: Option<DefenseEngine>,
    /// What the SE engines emit to (a defense keeps its own handle).
    pub obs: Obs,
}

impl FinalCommittee {
    /// Decides epoch `epoch`, solved to the budget of the caller-seeded
    /// `se`; [`Admission::finish`] yields the [`Decision`]. The defense
    /// screens `reported` at `policy.n_min(reported)`; a cutoff `n_max`
    /// poses only the earliest screened arrivals ([`cutoff`]). `N_min` is
    /// `policy.n_min` of the reports heard, at most the posed count; `Ĉ` is
    /// `capacity`, or `policy.capacity` over the posed shards. A
    /// degenerate epoch admits every screened report.
    ///
    /// # Errors
    ///
    /// [`Admission::open`]'s.
    pub fn decide(
        &mut self,
        epoch: u64,
        reported: &[ShardInfo],
        capacity: Option<u64>,
        n_max: Option<f64>,
        se: SeConfig,
    ) -> Result<Admission> {
        let screened = match &mut self.defense {
            Some(defense) => defense.admissible(epoch, reported, self.policy.n_min(reported.len())),
            None => reported.to_vec(),
        };
        let posed = match n_max {
            Some(fraction) => cutoff(&screened, fraction),
            None => screened.clone(),
        };
        // `N_min` counts the reports heard: all, or those the cutoff kept.
        let heard = n_max.map_or(reported.len(), |_| posed.len());
        let n_min = self.policy.n_min(heard).min(posed.len());
        let capacity = capacity.unwrap_or_else(|| self.policy.capacity.of(&posed));
        let obs = self.obs.clone();
        let mut admission =
            Admission::open(&self.policy, &screened, posed, n_min, capacity, se, obs)?;
        if screened.len() < reported.len() {
            let kept: BTreeSet<CommitteeId> = screened.iter().map(ShardInfo::committee).collect();
            let ids = reported.iter().map(ShardInfo::committee);
            admission.quarantined = ids.filter(|c| !kept.contains(c)).collect();
        }
        admission.advance(se.max_iterations);
        Ok(admission)
    }

    /// Settles epoch `epoch` on the committees' `reports`: a defense learns
    /// every true latency and the true sizes of admitted shards. Debug
    /// builds check that the tally conserves reports and transactions.
    pub fn settle(
        &mut self,
        epoch: u64,
        reports: &[CommitteeReport],
        decision: &Decision,
    ) -> Tally {
        let admitted: BTreeSet<CommitteeId> = decision.admitted.iter().copied().collect();
        let quarantined: BTreeSet<CommitteeId> = decision.quarantined.iter().copied().collect();
        let mut tally = Tally::default();
        let mut offered_txs = 0;
        for r in reports {
            let txs = r.truth.tx_count();
            offered_txs += txs;
            if admitted.contains(&r.committee()) {
                tally.admitted_txs += txs;
            } else if quarantined.contains(&r.committee()) {
                tally.quarantined_txs += txs;
            } else {
                tally.refused += 1;
                tally.refused_txs += txs;
            }
        }
        let decided = decision.admitted.len() + decision.quarantined.len();
        let committees = decided as u64 + tally.refused;
        debug_assert_eq!(committees, reports.len() as u64, "reports not conserved");
        let txs = tally.admitted_txs + tally.refused_txs + tally.quarantined_txs;
        debug_assert_eq!(txs, offered_txs, "offered transactions not conserved");
        if let Some(defense) = &mut self.defense {
            let observations: Vec<DefenseObservation> = reports
                .iter()
                .map(|r| {
                    let admitted = admitted.contains(&r.committee());
                    DefenseObservation::settled(&r.reported, &r.truth, admitted)
                })
                .collect();
            defense.end_epoch(epoch, &observations);
        }
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defense::{CommitteeRecord, DefenseCheckpoint, DefenseConfig};
    use mvcom_types::TwoPhaseLatency;

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    /// Twelve shards of ~90K TXs: 60 % of the load is a real knapsack.
    fn epoch() -> Vec<ShardInfo> {
        (0..12)
            .map(|i| {
                shard(
                    i,
                    90_000 + 1_000 * u64::from(i),
                    600.0 + 200.0 * f64::from(i),
                )
            })
            .collect()
    }

    fn adaptive() -> EpochPolicy {
        EpochPolicy {
            capacity: Capacity::FractionOfLoad(0.6),
            ..EpochPolicy::paper()
        }
    }

    fn open(policy: &EpochPolicy, shards: &[ShardInfo], se: SeConfig) -> Admission {
        let n_min = policy.n_min(shards.len());
        let capacity = policy.capacity.of(shards);
        let posed = shards.to_vec();
        Admission::open(policy, shards, posed, n_min, capacity, se, Obs::off()).unwrap()
    }

    /// A final committee whose defense has committee 7 quarantined until
    /// epoch 5.
    fn committee_with_one_quarantine(policy: EpochPolicy) -> FinalCommittee {
        let record = CommitteeRecord {
            trust: 0.5,
            size_ratios: Vec::new(),
            latency_ratios: Vec::new(),
            residuals: Vec::new(),
            streak: 0,
            offenses: 1,
            quarantined_until: Some(5),
        };
        let checkpoint = DefenseCheckpoint {
            epoch: 1,
            config: DefenseConfig::paper(),
            records: vec![(CommitteeId(7), record)],
        };
        FinalCommittee {
            policy,
            defense: Some(DefenseEngine::from_checkpoint(&checkpoint).unwrap()),
            obs: Obs::off(),
        }
    }

    /// DESIGN.md §6d's argument table, over 41 reports of which the
    /// defense quarantines one.
    #[test]
    fn each_callers_arguments_pose_the_epoch_by_the_documented_formulas() {
        let policy = EpochPolicy::paper();
        let reported: Vec<ShardInfo> = (0..41)
            .map(|i| shard(i, 700 + 37 * u64::from(i % 13), 500.0 + 61.0 * f64::from(i)))
            .collect();
        let decide = |capacity: Option<u64>, n_max: Option<f64>| {
            let mut committee = committee_with_one_quarantine(policy);
            let se = SeConfig::fast_test(3).for_epoch(1);
            committee
                .decide(1, &reported, capacity, n_max, se)
                .unwrap()
                .finish()
        };

        // The daemon and `EpochChain`: N_min = round(41 · 0.5) = 21, at
        // most the 40 screened; Ĉ = 1000 · 40 screened.
        let daemon = decide(None, None);
        assert_eq!(daemon.quarantined, [CommitteeId(7)]);
        assert_eq!((daemon.n_min, daemon.capacity), (21, 40_000));
        assert!(!daemon.admitted.contains(&CommitteeId(7)));

        // `fig_adv`: the same N_min, Ĉ over the whole population. At 41 it
        // is the rounded 21; the ⌊41/2⌋ = 20 `fig_adv` used to take agreed
        // only at the even populations it runs.
        let population = policy.capacity.of(&reported);
        let fig_adv = decide(Some(population), None);
        assert_eq!((fig_adv.n_min, fig_adv.capacity), (21, 41_000));
        assert_eq!(fig_adv.quarantined, [CommitteeId(7)]);

        // `SeSelector::select`: the cutoff keeps round(0.8 · 40) = 32
        // earliest screened arrivals, and N_min and Ĉ scale with them.
        let selector = decide(None, Some(0.8));
        assert_eq!((selector.n_min, selector.capacity), (16, 32_000));
        assert!(
            selector.admitted.iter().all(|c| c.0 <= 32 && c.0 != 7),
            "{:?}",
            selector.admitted
        );
    }

    #[test]
    fn settle_tallies_every_report_once_and_teaches_the_defense() {
        let policy = EpochPolicy::paper();
        let reports: Vec<CommitteeReport> = (0..10)
            .map(|i| CommitteeReport::honest(shard(i, 100 * u64::from(i + 1), 600.0)))
            .collect();
        let decision = Decision {
            admitted: vec![CommitteeId(2), CommitteeId(5), CommitteeId(9)],
            utility: 0.0,
            ddl: SimTime::from_secs(600.0),
            n_min: 3,
            capacity: 2_000,
            quarantined: vec![CommitteeId(7)],
        };
        let mut committee = committee_with_one_quarantine(policy);
        let tally = committee.settle(1, &reports, &decision);
        assert_eq!(
            tally,
            Tally {
                refused: 6,
                admitted_txs: 300 + 600 + 1_000,
                refused_txs: 100 + 200 + 400 + 500 + 700 + 900,
                quarantined_txs: 800,
            }
        );
        // An admitted shard's size was observed; a refused one's was not.
        let defense = committee.defense.as_ref().unwrap().checkpoint();
        let sizes = |id| {
            let (_, record) = defense
                .records
                .iter()
                .find(|(c, _)| *c == CommitteeId(id))
                .unwrap();
            record.size_ratios.len()
        };
        assert_eq!((sizes(2), sizes(3)), (1, 0));

        // Without a defense only the tally is left.
        let mut bare = FinalCommittee {
            policy,
            defense: None,
            obs: Obs::off(),
        };
        assert_eq!(bare.settle(1, &reports, &decision), tally);
    }

    #[test]
    fn the_two_capacity_rules_against_hand_numbers() {
        let shards = [shard(0, 100, 10.0), shard(1, 250, 20.0), shard(2, 1, 30.0)];
        assert_eq!(Capacity::PerCommittee(1_000).of(&shards), 3_000);
        assert_eq!(Capacity::PerCommittee(u64::MAX).of(&shards), u64::MAX);
        // 0.6 · 351 = 210.6 → 211; the fraction is clamped into (0, 1] and
        // the result never reaches zero.
        assert_eq!(Capacity::FractionOfLoad(0.6).of(&shards), 211);
        assert_eq!(Capacity::FractionOfLoad(7.0).of(&shards), 351);
        assert_eq!(Capacity::FractionOfLoad(0.0).of(&shards), 1);
        assert_eq!(Capacity::FractionOfLoad(0.5).of(&[]), 1);
    }

    #[test]
    fn n_min_rounds_half_up() {
        let half = EpochPolicy::paper();
        assert_eq!(
            [0, 1, 2, 3, 5, 8, 9].map(|n| half.n_min(n)),
            [0, 1, 1, 2, 3, 4, 5]
        );
        let third = EpochPolicy {
            n_min_fraction: 1.0 / 3.0,
            ..half
        };
        assert_eq!([1, 2, 4, 5].map(|n| third.n_min(n)), [0, 1, 1, 2]);
    }

    #[test]
    fn cutoff_keeps_the_earliest_arrivals_and_at_least_two() {
        let shards: Vec<ShardInfo> = (0..10)
            .map(|i| shard(i, 800, 1_400.0 - 100.0 * f64::from(i)))
            .collect();
        let ids = |kept: Vec<ShardInfo>| kept.iter().map(|s| s.committee().0).collect::<Vec<_>>();
        assert_eq!(ids(cutoff(&shards, 0.8)), [9, 8, 7, 6, 5, 4, 3, 2]);
        assert_eq!(ids(cutoff(&shards, 0.0)), [9, 8]);
        assert_eq!(ids(cutoff(&shards, 3.0)).len(), 10);
        assert_eq!(ids(cutoff(&shards[..1], 0.8)), [0]);
        assert!(cutoff(&[], 0.8).is_empty());
    }

    #[test]
    fn every_degenerate_cause_admits_all_with_the_max_arrival_utility() {
        let policy = EpochPolicy {
            alpha: 2.0,
            ..EpochPolicy::paper()
        };
        let three = [
            shard(0, 100, 10.0),
            shard(1, 200, 30.0),
            shard(2, 300, 20.0),
        ];
        // t = 30; U = 2·600 − (20 + 0 + 10).
        let all_three = Decision {
            admitted: vec![CommitteeId(0), CommitteeId(1), CommitteeId(2)],
            utility: 1_170.0,
            ddl: SimTime::from_secs(30.0),
            n_min: 2,
            capacity: 150,
            quarantined: Vec::new(),
        };
        let se = SeConfig::fast_test(1);

        // Fewer than two shards.
        let one = open(&policy, &three[..1], se);
        assert!(one.engine().is_none());
        let settled = one.finish();
        assert_eq!(settled.admitted, [CommitteeId(0)]);
        assert_eq!((settled.utility, settled.ddl.as_secs()), (200.0, 10.0));
        let none = open(&policy, &[], se).finish();
        assert_eq!((none.admitted.len(), none.utility), (0, 0.0));
        assert_eq!(none.ddl, SimTime::ZERO);

        // No selection satisfies the constraints: N_min = 2 shards of at
        // least 100 TXs each never fit in Ĉ = 150.
        let posed = three.to_vec();
        let unbuildable = Admission::open(&policy, &three, posed, 2, 150, se, Obs::off()).unwrap();
        assert!(unbuildable.engine().is_none());
        assert_eq!(unbuildable.finish(), all_three);

        // What was posed may be narrower than what arrived; the fallback
        // is everything that arrived, in arrival-list order.
        let posed = three[..1].to_vec();
        let narrowed = Admission::open(&policy, &three, posed, 1, 1_000, se, Obs::off()).unwrap();
        let (n_min, capacity) = (1, 1_000);
        assert_eq!(
            narrowed.finish(),
            Decision {
                n_min,
                capacity,
                ..all_three
            }
        );
    }

    #[test]
    fn an_unposable_epoch_or_a_refused_config_is_an_error_not_degenerate() {
        let policy = EpochPolicy::paper();
        let three = [
            shard(0, 100, 10.0),
            shard(1, 200, 30.0),
            shard(2, 300, 20.0),
        ];
        let open = |shards: &[ShardInfo], se: SeConfig| {
            Admission::open(&policy, shards, shards.to_vec(), 1, 1_000, se, Obs::off())
        };
        let se = SeConfig::fast_test(1);

        // The engine refuses Γ = 0 over a well-posed epoch.
        let err = open(&three, se.with_gamma(0)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");

        // A committee that reports twice cannot be posed.
        let repeated = [three[0], three[1], three[0]];
        let err = open(&repeated, se).unwrap_err();
        assert!(matches!(err, Error::InvalidInstance { .. }), "{err}");
        assert!(
            err.to_string().contains("duplicate shard for committee-0"),
            "{err}"
        );
    }

    #[test]
    fn a_posed_epoch_settles_like_the_engine_run_over_the_same_instance() {
        let shards = epoch();
        let policy = adaptive();
        let se = SeConfig::fast_test(4);
        let n_min = policy.n_min(shards.len());
        let capacity = policy.capacity.of(&shards);
        let instance = policy.pose(shards.clone(), n_min, capacity).unwrap();
        let outcome = SeEngine::new(&instance, se).unwrap().run();

        let mut admission = open(&policy, &shards, se);
        assert!(admission.engine().is_some());
        admission.advance(se.max_iterations);
        let iterations = admission.engine().unwrap().iteration();
        let settled = admission.finish();
        assert_eq!(iterations, outcome.iterations);
        assert_eq!(settled.utility.to_bits(), outcome.best_utility.to_bits());
        assert_eq!(
            settled.admitted,
            instance
                .committees(&outcome.best_solution)
                .collect::<Vec<_>>()
        );
        assert_eq!(settled.ddl, instance.ddl());
        assert!(settled.admitted.len() < shards.len(), "a strict selection");

        // The budget may be spent in slices: same rounds, same answer.
        let mut sliced = open(&policy, &shards, se);
        for _ in 0..se.max_iterations.div_ceil(7) {
            sliced.advance(7);
        }
        assert_eq!(sliced.finish(), settled);
    }

    #[test]
    fn a_departure_is_trimmed_ignored_or_degrades_to_the_survivors() {
        let shards = epoch();
        let policy = adaptive();
        let mut admission = open(&policy, &shards, SeConfig::fast_test(5));
        admission.advance(100);

        // Unknown committee: the engine is untouched.
        let before = admission.engine().unwrap().chain_utilities();
        admission.leave(CommitteeId(99));
        assert_eq!(admission.engine().unwrap().chain_utilities(), before);

        // A checkpoint swap keeps the epoch and the clock.
        let ckpt = admission.engine().unwrap().checkpoint();
        let restored = admission.restore(&ckpt).unwrap();
        assert_eq!(restored, ckpt.chain_count());
        assert_eq!(admission.engine().unwrap().iteration(), 100);

        // Known committee: trimmed, still solving, never admitted.
        admission.leave(CommitteeId(3));
        assert_eq!(admission.engine().unwrap().instance().len(), 11);
        admission.advance(200);
        let settled = admission.finish();
        assert!(!settled.admitted.is_empty());
        assert!(!settled.admitted.contains(&CommitteeId(3)));

        // N_min = 3 of 3: any departure leaves an epoch that cannot be
        // posed, and the admission admits the two survivors.
        let three = [
            shard(0, 100, 10.0),
            shard(1, 200, 30.0),
            shard(2, 300, 20.0),
        ];
        let all = EpochPolicy {
            n_min_fraction: 1.0,
            ..EpochPolicy::paper()
        };
        let mut tight = open(&all, &three, SeConfig::fast_test(6));
        assert!(tight.engine().is_some());
        tight.leave(CommitteeId(1));
        assert!(tight.engine().is_none());
        assert_eq!(tight.restore(&ckpt).unwrap(), 0);
        // A later departure shrinks the admit-all set.
        tight.leave(CommitteeId(0));
        tight.advance(10);
        let settled = tight.finish();
        assert_eq!(settled.admitted, [CommitteeId(2)]);
        assert_eq!((settled.utility, settled.ddl.as_secs()), (450.0, 20.0));
    }
}
