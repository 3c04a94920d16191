//! Strategic (rational-adversarial) committee behaviours.
//!
//! PR 1's fault model covered *benign* failures — drops, crashes, latency
//! spikes. This module models committees that **lie**: at the start of an
//! epoch every member committee reports its features `(s_i, l_i)` to the
//! final committee (paper §III-A), and nothing in the base protocol stops
//! a rational committee from misreporting them to capture utility it did
//! not earn. Each strategy turns one epoch's honest ground truth into
//! `(truth, reported)` pairs ([`CommitteeReport`]); the scheduler sees the
//! reports, while realized performance follows the truth. The defenses
//! living in `mvcom-core::defense` close the loop by comparing the two.
//!
//! All strategies are driven deterministically from an adversary seed, the
//! epoch index and the committee id — never from call order — so the same
//! configuration replays byte-identically at any thread count.

use std::collections::BTreeSet;

use rand::Rng;

use mvcom_simnet::{rng, SimRng};
pub use mvcom_types::CommitteeReport;
use mvcom_types::{CommitteeId, Error, Result, ShardInfo, TwoPhaseLatency};

use crate::epoch::LatencyConfig;

/// Shared adversary parameters: which fraction of the population colludes
/// and the seed all strategic randomness forks from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Fraction of the committees the adversary controls, in `[0, 1]`.
    pub fraction: f64,
    /// Master seed of the adversary's (deterministic) random choices.
    pub seed: u64,
}

impl AdversaryConfig {
    /// Builds a configuration, validating the fraction domain.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when `fraction` is outside `[0, 1]` or not
    /// finite.
    pub fn new(fraction: f64, seed: u64) -> Result<AdversaryConfig> {
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(Error::invalid_config(
                "adv-fraction",
                format!("must be a fraction within [0, 1], got {fraction}"),
            ));
        }
        Ok(AdversaryConfig { fraction, seed })
    }

    /// The adversarial subset of `committees`: exactly
    /// `round(fraction · n)` members, chosen by a deterministic per-id
    /// lottery (rank by a seeded hash draw). Independent of input order.
    pub fn subset(&self, committees: &[CommitteeId]) -> BTreeSet<CommitteeId> {
        let k = (self.fraction * committees.len() as f64).round() as usize;
        let mut ranked: Vec<(u64, CommitteeId)> = committees
            .iter()
            .map(|&c| (draw(self.seed, 0, c, "roster").gen::<u64>(), c))
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().take(k).map(|(_, c)| c).collect()
    }
}

/// A per-(seed, epoch, committee) random stream, independent of call order.
fn draw(seed: u64, epoch: u64, committee: CommitteeId, label: &str) -> SimRng {
    let mut master = rng::master(seed);
    rng::fork(
        &mut master,
        &format!("adv:{label}:{epoch}:{}", committee.value()),
    )
}

/// A strategic fault model: maps one epoch's honest shard set to
/// `(truth, reported)` pairs, perturbing the committees it controls.
pub trait Adversary {
    /// Strategy name, as it appears on `adversary_act` telemetry and CLI
    /// flags (`misreport` | `freerider` | `starver`).
    fn name(&self) -> &'static str;

    /// Whether the strategy controls `committee` within the given roster.
    fn controls(&self, committee: CommitteeId, roster: &[CommitteeId]) -> bool;

    /// Perturbs one epoch. `honest` is the ground-truth shard set; the
    /// output preserves input order and covers every input committee.
    fn act(&self, epoch: u64, honest: &[ShardInfo]) -> Vec<CommitteeReport>;
}

fn roster_of(honest: &[ShardInfo]) -> Vec<CommitteeId> {
    honest.iter().map(ShardInfo::committee).collect()
}

fn scale_latency(latency: TwoPhaseLatency, factor: f64) -> TwoPhaseLatency {
    TwoPhaseLatency::new(
        latency.formation() * factor.max(0.0),
        latency.consensus() * factor.max(0.0),
    )
}

/// `Misreport`: inflate the claimed shard size `s_i` and deflate the
/// claimed latency `l_i` at formation time, so the scheduler over-values
/// the shard on both axes of the objective `α·s_i − (t − l_i)`. Realized
/// performance is the unperturbed truth.
#[derive(Debug, Clone, Copy)]
pub struct Misreport {
    /// Shared fraction/seed parameters.
    pub config: AdversaryConfig,
    /// Maximum relative size inflation (reported up to `(1+inflate_s)·s`).
    pub inflate_s: f64,
    /// Maximum relative latency deflation (reported down to
    /// `(1−deflate_l)·l`).
    pub deflate_l: f64,
}

impl Misreport {
    /// Default magnitudes: up to +80% claimed size, −60% claimed latency.
    pub fn new(config: AdversaryConfig) -> Misreport {
        Misreport {
            config,
            inflate_s: 0.8,
            deflate_l: 0.6,
        }
    }
}

impl Adversary for Misreport {
    fn name(&self) -> &'static str {
        "misreport"
    }

    fn controls(&self, committee: CommitteeId, roster: &[CommitteeId]) -> bool {
        self.config.subset(roster).contains(&committee)
    }

    fn act(&self, epoch: u64, honest: &[ShardInfo]) -> Vec<CommitteeReport> {
        let subset = self.config.subset(&roster_of(honest));
        honest
            .iter()
            .map(|&shard| {
                if !subset.contains(&shard.committee()) {
                    return CommitteeReport::honest(shard);
                }
                let mut r = draw(self.config.seed, epoch, shard.committee(), "misreport");
                // Lie magnitude varies per epoch in [½·max, max]: a static
                // lie would be trivially learnable in one observation.
                let u: f64 = r.gen_range(0.5..1.0);
                let s = ((shard.tx_count() as f64) * (1.0 + self.inflate_s * u)).round() as u64;
                let l = scale_latency(shard.latency(), 1.0 - self.deflate_l * u);
                CommitteeReport {
                    truth: shard,
                    reported: ShardInfo::new(shard.committee(), s.max(1), l),
                    adversarial: true,
                }
            })
            .collect()
    }
}

/// `Freerider`: report honestly, deliver late. The committee defers its
/// own two-phase work and rides the RESET-bus broadcasts of the working
/// committees (it only submits after observing the others' progress), so
/// its *realized* latency exceeds the reported one by the time it spent
/// waiting — the report looked honest at formation, the truth is slower.
#[derive(Debug, Clone, Copy)]
pub struct Freerider {
    /// Shared fraction/seed parameters.
    pub config: AdversaryConfig,
    /// Maximum relative delay of the realized latency.
    pub delay: f64,
}

impl Freerider {
    /// Default magnitude: realized latency up to +90% of the report.
    pub fn new(config: AdversaryConfig) -> Freerider {
        Freerider { config, delay: 0.9 }
    }
}

impl Adversary for Freerider {
    fn name(&self) -> &'static str {
        "freerider"
    }

    fn controls(&self, committee: CommitteeId, roster: &[CommitteeId]) -> bool {
        self.config.subset(roster).contains(&committee)
    }

    fn act(&self, epoch: u64, honest: &[ShardInfo]) -> Vec<CommitteeReport> {
        let subset = self.config.subset(&roster_of(honest));
        honest
            .iter()
            .map(|&shard| {
                if !subset.contains(&shard.committee()) {
                    return CommitteeReport::honest(shard);
                }
                let mut r = draw(self.config.seed, epoch, shard.committee(), "freerider");
                let u: f64 = r.gen_range(0.5..1.0);
                let late = scale_latency(shard.latency(), 1.0 + self.delay * u);
                CommitteeReport {
                    truth: ShardInfo::new(shard.committee(), shard.tx_count(), late),
                    reported: shard,
                    adversarial: true,
                }
            })
            .collect()
    }
}

/// `Starver`: a colluding coalition that targets its rivals. Every member
/// undercuts the fastest *honest* latency (so the coalition survives any
/// arrival cutoff and minimizes its own age penalty) and inflates its
/// claimed size toward the biggest honest shard (so the coalition eats the
/// capacity `Ĉ`), aiming to crowd honest committees out of the admitted
/// set until fewer than `N_min` of them remain — starvation.
#[derive(Debug, Clone, Copy)]
pub struct Starver {
    /// Shared fraction/seed parameters.
    pub config: AdversaryConfig,
    /// Relative size inflation over the largest honest claim.
    pub inflate_s: f64,
    /// How far below the fastest honest latency the coalition undercuts.
    pub undercut: f64,
}

impl Starver {
    /// Default magnitudes: claim 30% over the biggest honest shard, arrive
    /// (on paper) up to 40% earlier than the fastest honest committee.
    pub fn new(config: AdversaryConfig) -> Starver {
        Starver {
            config,
            inflate_s: 0.3,
            undercut: 0.4,
        }
    }
}

impl Adversary for Starver {
    fn name(&self) -> &'static str {
        "starver"
    }

    fn controls(&self, committee: CommitteeId, roster: &[CommitteeId]) -> bool {
        self.config.subset(roster).contains(&committee)
    }

    fn act(&self, epoch: u64, honest: &[ShardInfo]) -> Vec<CommitteeReport> {
        let subset = self.config.subset(&roster_of(honest));
        // The coalition coordinates on the honest field it is attacking.
        let honest_only: Vec<&ShardInfo> = honest
            .iter()
            .filter(|s| !subset.contains(&s.committee()))
            .collect();
        let fastest = honest_only
            .iter()
            .map(|s| s.two_phase_latency())
            .min()
            .unwrap_or_else(|| mvcom_types::SimTime::from_secs(1.0));
        let biggest = honest_only
            .iter()
            .map(|s| s.tx_count())
            .max()
            .unwrap_or(1)
            .max(1);
        honest
            .iter()
            .map(|&shard| {
                if !subset.contains(&shard.committee()) {
                    return CommitteeReport::honest(shard);
                }
                let mut r = draw(self.config.seed, epoch, shard.committee(), "starver");
                let u: f64 = r.gen_range(0.5..1.0);
                let s = ((biggest as f64) * (1.0 + self.inflate_s * u)).round() as u64;
                let true_total = shard.two_phase_latency().as_secs().max(f64::EPSILON);
                let target = fastest.as_secs() * (1.0 - self.undercut * u);
                let l = scale_latency(shard.latency(), (target / true_total).max(0.0));
                CommitteeReport {
                    truth: shard,
                    reported: ShardInfo::new(shard.committee(), s.max(1), l),
                    adversarial: true,
                }
            })
            .collect()
    }
}

/// Builds the named strategy with its default magnitudes.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for an unknown strategy name.
pub fn build_adversary(strategy: &str, config: AdversaryConfig) -> Result<Box<dyn Adversary>> {
    match strategy {
        "misreport" => Ok(Box::new(Misreport::new(config))),
        "freerider" => Ok(Box::new(Freerider::new(config))),
        "starver" => Ok(Box::new(Starver::new(config))),
        other => Err(Error::invalid_config(
            "adv-strategy",
            format!("unknown strategy `{other}` (use misreport|freerider|starver)"),
        )),
    }
}

/// A fixed roster of committees with **stable identities across epochs** —
/// the population the reputation defenses learn over. Each epoch redraws
/// every committee's true `(s_i, l_i)` from the paper's §VI-A marginals
/// (log-normal shard sizes around `mean_txs`, Exp(600 s) formation +
/// log-normal consensus latency), from per-(seed, epoch, id) streams so
/// epochs replay independently of evaluation order.
///
/// This is the parametric counterpart of re-running [`crate::Trace`]-fed
/// [`crate::EpochGenerator`] epochs, which mints *fresh* ids per epoch and
/// therefore cannot accumulate per-committee reputation.
#[derive(Debug, Clone, Copy)]
pub struct StrategicPopulation {
    /// Number of committees (`CommitteeId(0..n)`).
    pub n: usize,
    /// Latency marginals per committee per epoch.
    pub latency: LatencyConfig,
    /// Mean true shard size, transactions.
    pub mean_txs: f64,
    /// Master seed of the population's ground-truth draws.
    pub seed: u64,
}

impl StrategicPopulation {
    /// A paper-like population: ~1089-TX shards, §VI-A latencies.
    pub fn new(n: usize, seed: u64) -> StrategicPopulation {
        StrategicPopulation {
            n,
            latency: LatencyConfig::paper(),
            mean_txs: 1_089.0,
            seed,
        }
    }

    /// The stable roster, `CommitteeId(0) .. CommitteeId(n-1)`.
    pub fn committees(&self) -> Vec<CommitteeId> {
        (0..self.n).map(|i| CommitteeId(i as u32)).collect()
    }

    /// One epoch's ground-truth shard set.
    pub fn honest_epoch(&self, epoch: u64) -> Vec<ShardInfo> {
        use rand_distr::{Distribution, StandardNormal};
        let sigma = 0.35f64;
        // E[lognormal] = exp(mu + sigma²/2); solve mu for the target mean.
        // Clamping the mean into [1, f64::MAX] keeps mu finite (a NaN mean
        // stays NaN and every draw lands on the 1-tx floor), so the
        // log-normal draw needs no fallible constructor.
        let mu = self.mean_txs.clamp(1.0, f64::MAX).ln() - sigma * sigma / 2.0;
        (0..self.n)
            .map(|i| {
                let id = CommitteeId(i as u32);
                let mut r = draw(self.seed, epoch, id, "population");
                let size = (mu + sigma * StandardNormal.sample(&mut r)).exp();
                let txs = size.round().max(1.0) as u64;
                ShardInfo::new(id, txs, self.latency.sample(&mut r))
            })
            .collect()
    }

    /// One epoch filtered through `adversary`: `(truth, reported)` pairs.
    pub fn epoch_reports(&self, epoch: u64, adversary: &dyn Adversary) -> Vec<CommitteeReport> {
        adversary.act(epoch, &self.honest_epoch(epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_types::SimTime;

    fn shards(n: u32) -> Vec<ShardInfo> {
        (0..n)
            .map(|i| {
                ShardInfo::new(
                    CommitteeId(i),
                    1_000 + u64::from(i) * 10,
                    TwoPhaseLatency::from_total(SimTime::from_secs(600.0 + f64::from(i) * 5.0)),
                )
            })
            .collect()
    }

    #[test]
    fn config_rejects_out_of_range_fractions() {
        assert!(AdversaryConfig::new(-0.1, 1).is_err());
        assert!(AdversaryConfig::new(1.1, 1).is_err());
        assert!(AdversaryConfig::new(f64::NAN, 1).is_err());
        assert!(AdversaryConfig::new(0.0, 1).is_ok());
        assert!(AdversaryConfig::new(1.0, 1).is_ok());
    }

    #[test]
    fn subset_is_exact_deterministic_and_order_independent() {
        let config = AdversaryConfig::new(0.2, 7).unwrap();
        let roster: Vec<CommitteeId> = (0..50).map(CommitteeId).collect();
        let subset = config.subset(&roster);
        assert_eq!(subset.len(), 10);
        let mut reversed = roster.clone();
        reversed.reverse();
        assert_eq!(config.subset(&reversed), subset);
        // A different seed picks a different coalition.
        let other = AdversaryConfig::new(0.2, 8).unwrap().subset(&roster);
        assert_ne!(other, subset);
    }

    #[test]
    fn zero_fraction_is_identity_for_every_strategy() {
        let config = AdversaryConfig::new(0.0, 3).unwrap();
        let input = shards(12);
        for strategy in ["misreport", "freerider", "starver"] {
            let adv = build_adversary(strategy, config).unwrap();
            let out = adv.act(0, &input);
            assert_eq!(out.len(), input.len());
            for (pair, shard) in out.iter().zip(&input) {
                assert!(!pair.adversarial);
                assert_eq!(pair.truth, *shard);
                assert_eq!(pair.reported, *shard);
            }
        }
    }

    #[test]
    fn misreport_inflates_s_and_deflates_l_in_reports_only() {
        let config = AdversaryConfig::new(0.25, 5).unwrap();
        let adv = Misreport::new(config);
        let input = shards(20);
        let out = adv.act(3, &input);
        let lies: Vec<&CommitteeReport> = out.iter().filter(|p| p.adversarial).collect();
        assert_eq!(lies.len(), 5);
        for pair in lies {
            assert!(pair.reported.tx_count() > pair.truth.tx_count());
            assert!(pair.reported.two_phase_latency() < pair.truth.two_phase_latency());
            assert!(pair.ds() > 0.0);
            assert!(pair.dl() < 0.0);
        }
    }

    #[test]
    fn freerider_reports_honestly_but_delivers_late() {
        let config = AdversaryConfig::new(0.25, 6).unwrap();
        let adv = Freerider::new(config);
        let input = shards(20);
        for pair in adv.act(1, &input).iter().filter(|p| p.adversarial) {
            assert_eq!(pair.reported.tx_count(), pair.truth.tx_count());
            assert!(pair.truth.two_phase_latency() > pair.reported.two_phase_latency());
        }
    }

    #[test]
    fn starver_coalition_undercuts_every_honest_committee() {
        let config = AdversaryConfig::new(0.3, 9).unwrap();
        let adv = Starver::new(config);
        let input = shards(20);
        let out = adv.act(2, &input);
        let fastest_honest = out
            .iter()
            .filter(|p| !p.adversarial)
            .map(|p| p.reported.two_phase_latency())
            .min()
            .unwrap();
        let biggest_honest = out
            .iter()
            .filter(|p| !p.adversarial)
            .map(|p| p.reported.tx_count())
            .max()
            .unwrap();
        for pair in out.iter().filter(|p| p.adversarial) {
            assert!(pair.reported.two_phase_latency() < fastest_honest);
            assert!(pair.reported.tx_count() > biggest_honest);
        }
    }

    #[test]
    fn acts_replay_byte_identically_per_epoch_and_differ_across_epochs() {
        let config = AdversaryConfig::new(0.2, 11).unwrap();
        let adv = Misreport::new(config);
        let input = shards(15);
        assert_eq!(adv.act(4, &input), adv.act(4, &input));
        assert_ne!(adv.act(4, &input), adv.act(5, &input));
    }

    #[test]
    fn population_is_stable_in_ids_and_deterministic_in_features() {
        let pop = StrategicPopulation::new(30, 13);
        let a = pop.honest_epoch(0);
        let b = pop.honest_epoch(0);
        assert_eq!(a, b);
        let later = pop.honest_epoch(1);
        assert_ne!(a, later, "features must be redrawn per epoch");
        let ids: Vec<CommitteeId> = a.iter().map(ShardInfo::committee).collect();
        assert_eq!(ids, pop.committees());
        assert_eq!(
            later.iter().map(ShardInfo::committee).collect::<Vec<_>>(),
            ids,
            "identities must persist across epochs"
        );
    }

    #[test]
    fn population_marginals_are_paper_like() {
        let pop = StrategicPopulation::new(2_000, 17);
        let epoch = pop.honest_epoch(0);
        let mean_s: f64 =
            epoch.iter().map(|s| s.tx_count() as f64).sum::<f64>() / epoch.len() as f64;
        let mean_l: f64 = epoch
            .iter()
            .map(|s| s.two_phase_latency().as_secs())
            .sum::<f64>()
            / epoch.len() as f64;
        assert!((900.0..1_300.0).contains(&mean_s), "mean s {mean_s}");
        assert!((550.0..750.0).contains(&mean_l), "mean l {mean_l}");
    }

    #[test]
    fn population_clamps_a_non_finite_mean_instead_of_panicking() {
        let epoch = |mean_txs| {
            StrategicPopulation {
                mean_txs,
                ..StrategicPopulation::new(50, 3)
            }
            .honest_epoch(0)
        };
        // ∞ draws as the largest finite mean; NaN puts every shard on the
        // 1-tx floor.
        assert_eq!(epoch(f64::INFINITY), epoch(f64::MAX));
        assert!(epoch(f64::NAN).iter().all(|s| s.tx_count() == 1));
    }

    #[test]
    fn build_adversary_rejects_unknown_names() {
        let config = AdversaryConfig::new(0.1, 1).unwrap();
        assert!(build_adversary("bribe", config).is_err());
        for name in ["misreport", "freerider", "starver"] {
            assert_eq!(build_adversary(name, config).unwrap().name(), name);
        }
    }
}
