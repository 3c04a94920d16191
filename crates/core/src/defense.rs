//! Reputation-weighted defenses against strategic committees.
//!
//! PR 1 hardened the pipeline against *benign* faults; this module is the
//! scheduler-side answer to committees that **lie**. Each epoch a committee
//! reports `(s_i, l_i)` at formation; after the epoch closes, the final
//! committee observes the realized values on the RESET bus (the true
//! latency always, the true transaction count only for admitted shards).
//! [`DefenseEngine`] maintains a per-committee reputation from the ratio
//! `observed / reported` and feeds three defenses back into scheduling:
//!
//! 1. **Robust estimation** — [`DefenseEngine::screen`] replaces each
//!    report with a median-of-window corrected estimate, so a committee
//!    that habitually inflates `s_i` is scheduled against its *historical*
//!    truth, not its claim.
//! 2. **Utility discounting** — every committee carries a trust weight in
//!    `[min_trust, 1]`; flagged committees have their corrected `s_i`
//!    multiplied by it, which discounts their utility `α·s_i` inside the
//!    SE objective so the schedule degrades gracefully instead of
//!    collapsing when the adversarial fraction grows.
//! 3. **Quarantine with backoff** — committees whose windowed residual
//!    stays above the flagging threshold are excluded from candidacy for
//!    exponentially growing spans, and rehabilitated (with depressed
//!    trust) when the span expires.
//!
//! The engine is deliberately RNG-free: its state is a pure fold over the
//! observation sequence, so a [`DefenseCheckpoint`] restore mid-quarantine
//! reproduces the exact flag/quarantine decisions of an uninterrupted run
//! (see `crates/core/tests/defense_checkpoint.rs`).
//!
//! Telemetry: `flagged`, `quarantine` and `rehabilitated` events on the
//! epoch-index clock (see OBSERVABILITY.md).

use std::collections::BTreeMap;

use mvcom_obs::{Obs, Value};
use mvcom_types::{sort_by_f64, CommitteeId, Error, ShardInfo, SimTime, TwoPhaseLatency};
use serde::{Deserialize, Serialize};

/// Tuning knobs for the reputation defenses.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DefenseConfig {
    /// Epochs of history kept per committee for the median estimators.
    pub window: usize,
    /// Per-epoch residual above which an epoch counts as suspicious.
    pub flag_threshold: f64,
    /// Consecutive suspicious epochs before a committee is flagged.
    pub flag_streak: u64,
    /// Quarantine length (epochs) for a first offense.
    pub quarantine_base: u64,
    /// Cap on the exponential quarantine backoff.
    pub quarantine_max: u64,
    /// Multiplicative trust cut applied when a committee is flagged.
    pub flag_discount: f64,
    /// Additive trust recovery per clean (unflagged, unquarantined) epoch.
    pub trust_recovery: f64,
    /// Trust floor; keeps flagged committees schedulable as a last resort.
    pub min_trust: f64,
}

impl DefenseConfig {
    /// Defaults used by the `fig_adv` evaluation: an 8-epoch window, a
    /// 25 % residual tolerance (comfortably above honest estimation
    /// noise, comfortably below the strategy profiles in
    /// `mvcom-dataset::adversary`), two strikes to flag, and 2→32 epoch
    /// quarantine backoff.
    pub fn paper() -> DefenseConfig {
        DefenseConfig {
            window: 8,
            flag_threshold: 0.25,
            flag_streak: 2,
            quarantine_base: 2,
            quarantine_max: 32,
            flag_discount: 0.5,
            trust_recovery: 0.05,
            min_trust: 0.05,
        }
    }

    /// Validates ranges; returns `Error::InvalidConfig` on nonsense.
    pub fn validate(&self) -> Result<(), Error> {
        if self.window == 0 {
            return Err(Error::invalid_config("window", "must be at least 1"));
        }
        if !self.flag_threshold.is_finite() || self.flag_threshold <= 0.0 {
            return Err(Error::invalid_config(
                "flag_threshold",
                "must be positive and finite",
            ));
        }
        if self.flag_streak == 0 {
            return Err(Error::invalid_config("flag_streak", "must be at least 1"));
        }
        if self.quarantine_base == 0 || self.quarantine_max < self.quarantine_base {
            return Err(Error::invalid_config(
                "quarantine_base",
                "need 1 <= quarantine_base <= quarantine_max",
            ));
        }
        if !(0.0..=1.0).contains(&self.flag_discount) || !self.flag_discount.is_finite() {
            return Err(Error::invalid_config("flag_discount", "must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.trust_recovery) || !self.trust_recovery.is_finite() {
            return Err(Error::invalid_config("trust_recovery", "must be in [0, 1]"));
        }
        if !(0.0..=1.0).contains(&self.min_trust) || !self.min_trust.is_finite() {
            return Err(Error::invalid_config("min_trust", "must be in [0, 1]"));
        }
        Ok(())
    }
}

/// What the final committee learned about one committee after an epoch.
#[derive(Clone, Copy, Debug)]
pub struct DefenseObservation {
    /// The committee the observation is about.
    pub committee: CommitteeId,
    /// Transaction count claimed at formation.
    pub reported_size: u64,
    /// Two-phase latency claimed at formation (total).
    pub reported_latency: SimTime,
    /// Realized latency on the RESET bus — observable for every
    /// participating committee, admitted or not.
    pub observed_latency: SimTime,
    /// Realized transaction count — only observable for admitted shards
    /// (the final committee never sees an excluded shard's payload).
    pub observed_size: Option<u64>,
}

impl DefenseObservation {
    /// The stage-4 settlement information model, in one place: the final
    /// committee compares the `reported` shard with the `truth` it could
    /// actually observe — the realized latency of every committee, the
    /// realized size only of an `admitted` shard (an unadmitted shard's
    /// contents are never seen).
    pub fn settled(reported: &ShardInfo, truth: &ShardInfo, admitted: bool) -> DefenseObservation {
        DefenseObservation {
            committee: truth.committee(),
            reported_size: reported.tx_count(),
            reported_latency: reported.two_phase_latency(),
            observed_latency: truth.two_phase_latency(),
            observed_size: admitted.then_some(truth.tx_count()),
        }
    }
}

/// Per-committee reputation state. Serializable so the whole engine can be
/// checkpointed alongside [`crate::se::SeCheckpoint`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommitteeRecord {
    /// Trust weight in `[min_trust, 1]`; multiplies the corrected size.
    pub trust: f64,
    /// Windowed `observed / reported` size ratios (admitted epochs only).
    pub size_ratios: Vec<f64>,
    /// Windowed `observed / reported` latency ratios.
    pub latency_ratios: Vec<f64>,
    /// Windowed per-epoch residuals (the flagging signal).
    pub residuals: Vec<f64>,
    /// Consecutive suspicious epochs so far.
    pub streak: u64,
    /// Lifetime flag count; drives the quarantine backoff.
    pub offenses: u64,
    /// First epoch at which the committee may be screened again, if
    /// currently quarantined.
    pub quarantined_until: Option<u64>,
}

impl CommitteeRecord {
    fn fresh() -> CommitteeRecord {
        CommitteeRecord {
            trust: 1.0,
            size_ratios: Vec::new(),
            latency_ratios: Vec::new(),
            residuals: Vec::new(),
            streak: 0,
            offenses: 0,
            quarantined_until: None,
        }
    }
}

/// One screened report: the robust estimate the scheduler should use in
/// place of the raw claim.
#[derive(Clone, Copy, Debug)]
pub struct ScreenedReport {
    /// Corrected `(s_i, l_i)` — reported values rescaled by the windowed
    /// median ratios, with the size further discounted by trust.
    pub info: ShardInfo,
    /// `true` while the committee is serving a quarantine span; callers
    /// should exclude it from candidacy (subject to `N_min` feasibility).
    pub quarantined: bool,
    /// Trust weight backing the discount, for diagnostics.
    pub trust: f64,
}

/// Serializable snapshot of a [`DefenseEngine`].
///
/// Records are stored as a sorted `Vec` of pairs (not a map) so the JSON
/// form is stable and round-trips without string-keyed contortions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DefenseCheckpoint {
    /// Epoch counter at capture time (next epoch to be screened).
    pub epoch: u64,
    /// Engine configuration.
    pub config: DefenseConfig,
    /// Per-committee records, ascending by committee id.
    pub records: Vec<(CommitteeId, CommitteeRecord)>,
}

/// The reputation engine: screen reports before scheduling, ingest
/// observations after the epoch settles.
#[derive(Debug)]
pub struct DefenseEngine {
    config: DefenseConfig,
    records: BTreeMap<CommitteeId, CommitteeRecord>,
    epoch: u64,
    obs: Obs,
}

/// Median of a non-empty slice (average of the middle pair for even
/// lengths); `default` when empty.
fn median(values: &[f64], default: f64) -> f64 {
    if values.is_empty() {
        return default;
    }
    let mut sorted = values.to_vec();
    sort_by_f64(&mut sorted, |v| *v);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn push_window(window: &mut Vec<f64>, value: f64, cap: usize) {
    window.push(value);
    if window.len() > cap {
        window.remove(0);
    }
}

impl DefenseEngine {
    /// A fresh engine with no history (every committee starts at trust 1).
    pub fn new(config: DefenseConfig) -> Result<DefenseEngine, Error> {
        config.validate()?;
        Ok(DefenseEngine {
            config,
            records: BTreeMap::new(),
            epoch: 0,
            obs: Obs::off(),
        })
    }

    /// Attaches a telemetry handle for `flagged` / `quarantine` /
    /// `rehabilitated` events (epoch-index clock).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> DefenseEngine {
        self.obs = obs;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &DefenseConfig {
        &self.config
    }

    /// Current trust weight for a committee (1.0 if never seen).
    pub fn trust(&self, committee: CommitteeId) -> f64 {
        self.records.get(&committee).map_or(1.0, |r| r.trust)
    }

    /// Whether a committee is quarantined at the given epoch.
    pub fn is_quarantined(&self, committee: CommitteeId, epoch: u64) -> bool {
        self.records
            .get(&committee)
            .and_then(|r| r.quarantined_until)
            .is_some_and(|until| epoch < until)
    }

    /// Screens one epoch's formation reports: rehabilitates committees
    /// whose quarantine has expired (emitting `rehabilitated`), then maps
    /// every report to its robust estimate. Order follows the input.
    pub fn screen(&mut self, epoch: u64, reports: &[ShardInfo]) -> Vec<ScreenedReport> {
        self.epoch = epoch;
        for report in reports {
            let record = self
                .records
                .entry(report.committee())
                .or_insert_with(CommitteeRecord::fresh);
            if record.quarantined_until.is_some_and(|until| epoch >= until) {
                record.quarantined_until = None;
                record.streak = 0;
                record.residuals.clear();
                self.obs.emit(
                    "rehabilitated",
                    epoch as f64,
                    &[
                        ("committee", Value::from(report.committee().value())),
                        ("epoch", Value::U64(epoch)),
                        ("trust", Value::F64(record.trust)),
                    ],
                );
            }
        }
        reports
            .iter()
            .map(|report| {
                // Entry inserted for every report in the loop above.
                let record = &self.records[&report.committee()];
                let size_corr = median(&record.size_ratios, 1.0).clamp(0.1, 10.0);
                let lat_corr = median(&record.latency_ratios, 1.0).clamp(0.1, 10.0);
                let s = ((report.tx_count() as f64) * size_corr * record.trust)
                    .round()
                    .max(1.0) as u64;
                let latency = TwoPhaseLatency::new(
                    report.latency().formation() * lat_corr,
                    report.latency().consensus() * lat_corr,
                );
                ScreenedReport {
                    info: ShardInfo::new(report.committee(), s, latency),
                    quarantined: record.quarantined_until.is_some_and(|until| epoch < until),
                    trust: record.trust,
                }
            })
            .collect()
    }

    /// Candidate list after screening: corrected estimates with
    /// quarantined committees excluded — unless exclusion would leave
    /// fewer than `n_min` candidates, in which case quarantined
    /// committees are readmitted in descending trust order (ties broken
    /// by committee id) so the epoch stays feasible.
    pub fn admissible(
        &mut self,
        epoch: u64,
        reports: &[ShardInfo],
        n_min: usize,
    ) -> Vec<ShardInfo> {
        let screened = self.screen(epoch, reports);
        let mut admitted: Vec<ShardInfo> = screened
            .iter()
            .filter(|s| !s.quarantined)
            .map(|s| s.info)
            .collect();
        if admitted.len() < n_min {
            let mut benched: Vec<&ScreenedReport> =
                screened.iter().filter(|s| s.quarantined).collect();
            sort_by_f64(&mut benched, |s| -s.trust);
            for s in benched {
                if admitted.len() >= n_min {
                    break;
                }
                admitted.push(s.info);
            }
        }
        admitted
    }

    /// Ingests one epoch's realized observations, updating windows,
    /// trust, flags and quarantine state. Committees with no observation
    /// this epoch (e.g. quarantined, absent) are left untouched.
    pub fn end_epoch(&mut self, epoch: u64, observations: &[DefenseObservation]) {
        for ob in observations {
            let record = self
                .records
                .entry(ob.committee)
                .or_insert_with(CommitteeRecord::fresh);
            if record.quarantined_until.is_some_and(|until| epoch < until) {
                continue;
            }
            let reported_l = ob.reported_latency.as_millis().max(1.0);
            let rl = ob.observed_latency.as_millis() / reported_l;
            push_window(&mut record.latency_ratios, rl, self.config.window);
            let mut residual = (rl - 1.0).max(0.0);
            if let Some(observed_s) = ob.observed_size {
                let rs = observed_s as f64 / (ob.reported_size.max(1) as f64);
                push_window(&mut record.size_ratios, rs, self.config.window);
                residual = residual.max((rs - 1.0).abs());
            }
            push_window(&mut record.residuals, residual, self.config.window);

            let windowed = median(&record.residuals, 0.0);
            if windowed > self.config.flag_threshold {
                record.streak += 1;
                if record.streak >= self.config.flag_streak {
                    record.streak = 0;
                    record.offenses += 1;
                    record.trust =
                        (record.trust * self.config.flag_discount).max(self.config.min_trust);
                    self.obs.emit(
                        "flagged",
                        epoch as f64,
                        &[
                            ("committee", Value::from(ob.committee.value())),
                            ("epoch", Value::U64(epoch)),
                            ("residual", Value::F64(windowed)),
                            ("trust", Value::F64(record.trust)),
                        ],
                    );
                    // base · 2^(offenses − 1), saturating: a span past
                    // `u64` is past the cap, and so is its release epoch.
                    let span = 2u64
                        .checked_pow((record.offenses - 1).min(64) as u32)
                        .and_then(|doubling| self.config.quarantine_base.checked_mul(doubling))
                        .unwrap_or(u64::MAX)
                        .min(self.config.quarantine_max);
                    let until = (epoch + 1).saturating_add(span);
                    record.quarantined_until = Some(until);
                    self.obs.emit(
                        "quarantine",
                        epoch as f64,
                        &[
                            ("committee", Value::from(ob.committee.value())),
                            ("epoch", Value::U64(epoch)),
                            ("until", Value::U64(until)),
                            ("offenses", Value::U64(record.offenses)),
                        ],
                    );
                }
            } else {
                record.streak = 0;
                record.trust = (record.trust + self.config.trust_recovery).min(1.0);
            }
        }
        self.epoch = epoch + 1;
    }

    /// Serializable snapshot of the full reputation state.
    pub fn checkpoint(&self) -> DefenseCheckpoint {
        DefenseCheckpoint {
            epoch: self.epoch,
            config: self.config,
            records: self
                .records
                .iter()
                .map(|(id, record)| (*id, record.clone()))
                .collect(),
        }
    }

    /// Rebuilds an engine from a snapshot. The engine is a pure fold over
    /// its observation stream, so a restored engine replays the exact
    /// flag/quarantine decisions the uninterrupted run would have made.
    pub fn from_checkpoint(ckpt: &DefenseCheckpoint) -> Result<DefenseEngine, Error> {
        ckpt.config.validate()?;
        Ok(DefenseEngine {
            config: ckpt.config,
            records: ckpt.records.iter().cloned().collect(),
            epoch: ckpt.epoch,
            obs: Obs::off(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: u32, s: u64, total_secs: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            s,
            TwoPhaseLatency::from_total(SimTime::from_secs(total_secs)),
        )
    }

    fn ob(
        id: u32,
        reported_s: u64,
        reported_l: f64,
        observed_s: Option<u64>,
        observed_l: f64,
    ) -> DefenseObservation {
        DefenseObservation {
            committee: CommitteeId(id),
            reported_size: reported_s,
            reported_latency: SimTime::from_secs(reported_l),
            observed_latency: SimTime::from_secs(observed_l),
            observed_size: observed_s,
        }
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(DefenseConfig::paper().validate().is_ok());
        let mut c = DefenseConfig::paper();
        c.window = 0;
        assert!(c.validate().is_err());
        let mut c = DefenseConfig::paper();
        c.flag_threshold = -0.5;
        assert!(c.validate().is_err());
        let mut c = DefenseConfig::paper();
        c.quarantine_max = 1;
        assert!(c.validate().is_err());
        let mut c = DefenseConfig::paper();
        c.flag_discount = 1.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn honest_committee_is_never_flagged() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        for epoch in 0..50 {
            engine.end_epoch(epoch, &[ob(1, 1000, 600.0, Some(1000), 600.0)]);
        }
        assert!(!engine.is_quarantined(CommitteeId(1), 50));
        assert!((engine.trust(CommitteeId(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn early_arrival_is_not_an_offense() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        // Arrives at half the promised latency, every epoch.
        for epoch in 0..50 {
            engine.end_epoch(epoch, &[ob(2, 1000, 600.0, Some(1000), 300.0)]);
        }
        assert!(!engine.is_quarantined(CommitteeId(2), 50));
    }

    #[test]
    fn size_inflator_is_flagged_and_quarantined() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        // Claims 2000, delivers 1000: rs = 0.5, residual 0.5 > 0.25.
        let mut flagged_at = None;
        for epoch in 0..10 {
            engine.end_epoch(epoch, &[ob(3, 2000, 600.0, Some(1000), 600.0)]);
            if engine.is_quarantined(CommitteeId(3), epoch + 1) {
                flagged_at = Some(epoch);
                break;
            }
        }
        // Two strikes to flag: quarantined after the second offense epoch.
        assert_eq!(flagged_at, Some(1));
        assert!(engine.trust(CommitteeId(3)) < 1.0);
    }

    #[test]
    fn freerider_is_flagged_on_latency_alone() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        // Truthful size, but delivers 1.5x late (rl − 1 = 0.5 > 0.25);
        // size never observed (excluded shard).
        for epoch in 0..5 {
            engine.end_epoch(epoch, &[ob(4, 1000, 600.0, None, 900.0)]);
        }
        assert!(engine.is_quarantined(CommitteeId(4), 3));
    }

    #[test]
    fn quarantine_backoff_doubles_and_caps() {
        let config = DefenseConfig {
            quarantine_base: 2,
            quarantine_max: 8,
            ..DefenseConfig::paper()
        };
        let mut engine = DefenseEngine::new(config).unwrap();
        let mut spans = Vec::new();
        let mut epoch = 0;
        for _ in 0..4 {
            // Feed offenses until quarantined, then skip to release.
            loop {
                engine.end_epoch(epoch, &[ob(5, 2000, 600.0, Some(1000), 600.0)]);
                epoch += 1;
                if engine.is_quarantined(CommitteeId(5), epoch) {
                    break;
                }
            }
            let record = &engine.records[&CommitteeId(5)];
            let until = record.quarantined_until.unwrap();
            spans.push(until - epoch);
            // Serve out the quarantine, then screen to rehabilitate.
            epoch = until;
            engine.screen(epoch, &[shard(5, 2000, 600.0)]);
        }
        assert_eq!(spans, vec![2, 4, 8, 8]);
    }

    #[test]
    fn quarantine_backoff_stays_at_its_cap_past_64_offenses() {
        // `2 << 63` wraps to 0 in a plain shift: a persistent liar's 64th
        // offense must still cost `quarantine_max`, not zero epochs.
        let config = DefenseConfig::paper();
        let mut engine = DefenseEngine::new(config).unwrap();
        let liar = CommitteeId(5);
        let mut spans = Vec::new();
        let mut epoch = 0;
        for offense in 1..=66 {
            // `flag_streak` suspicious epochs make the next offense.
            for _ in 0..config.flag_streak {
                engine.end_epoch(epoch, &[ob(5, 2000, 600.0, Some(1000), 600.0)]);
                epoch += 1;
            }
            let record = &engine.records[&liar];
            assert_eq!(record.offenses, offense);
            let until = record.quarantined_until.unwrap();
            spans.push(until - epoch);
            epoch = epoch.max(until);
            engine.screen(epoch, &[shard(5, 2000, 600.0)]);
        }
        assert_eq!(spans[..6], [2, 4, 8, 16, 32, 32]);
        assert!(spans[6..].iter().all(|&span| span == config.quarantine_max));

        // A cap at `u64::MAX` (a checkpoint may carry one) saturates the
        // release epoch instead of overflowing it.
        let config = DefenseConfig {
            quarantine_base: u64::MAX,
            quarantine_max: u64::MAX,
            ..DefenseConfig::paper()
        };
        let mut engine = DefenseEngine::new(config).unwrap();
        for epoch in 0..config.flag_streak {
            engine.end_epoch(epoch, &[ob(5, 2000, 600.0, Some(1000), 600.0)]);
        }
        assert_eq!(engine.records[&liar].quarantined_until, Some(u64::MAX));
    }

    #[test]
    fn rehabilitation_restores_candidacy_and_trust_recovers() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        for epoch in 0..2 {
            engine.end_epoch(epoch, &[ob(6, 2000, 600.0, Some(1000), 600.0)]);
        }
        assert!(engine.is_quarantined(CommitteeId(6), 2));
        let trust_low = engine.trust(CommitteeId(6));
        let until = engine.records[&CommitteeId(6)].quarantined_until.unwrap();
        let screened = engine.screen(until, &[shard(6, 1000, 600.0)]);
        assert!(!screened[0].quarantined);
        // Clean epochs now recover trust.
        for epoch in until..until + 4 {
            engine.end_epoch(epoch, &[ob(6, 1000, 600.0, Some(1000), 600.0)]);
        }
        assert!(engine.trust(CommitteeId(6)) > trust_low);
    }

    #[test]
    fn screen_corrects_inflated_size_toward_truth() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        // History: reports 2000, delivers 1000 (ratio 0.5), but stay just
        // below the quarantine path by alternating honest epochs.
        for epoch in 0..8 {
            let observed = if epoch % 2 == 0 {
                Some(1000)
            } else {
                Some(2000)
            };
            engine.end_epoch(epoch, &[ob(7, 2000, 600.0, observed, 600.0)]);
        }
        let record_trust = engine.trust(CommitteeId(7));
        let screened = engine.screen(8, &[shard(7, 2000, 600.0)]);
        let med = median(&engine.records[&CommitteeId(7)].size_ratios, 1.0);
        let expect = (2000.0 * med * record_trust).round().max(1.0) as u64;
        assert_eq!(screened[0].info.tx_count(), expect);
        assert!(screened[0].info.tx_count() < 2000);
    }

    #[test]
    fn fresh_committee_screens_to_its_own_report() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        let report = shard(8, 1234, 321.0);
        let screened = engine.screen(0, &[report]);
        assert_eq!(screened[0].info.tx_count(), 1234);
        assert!(
            (screened[0].info.two_phase_latency().as_millis()
                - report.two_phase_latency().as_millis())
            .abs()
                < 1e-9
        );
        assert!(!screened[0].quarantined);
    }

    #[test]
    fn admissible_backfills_to_n_min_from_quarantine() {
        let mut engine = DefenseEngine::new(DefenseConfig::paper()).unwrap();
        // Quarantine committees 1 and 2.
        for epoch in 0..2 {
            engine.end_epoch(
                epoch,
                &[
                    ob(1, 2000, 600.0, Some(1000), 600.0),
                    ob(2, 2000, 600.0, Some(1000), 600.0),
                ],
            );
        }
        let reports = vec![
            shard(1, 1000, 600.0),
            shard(2, 1000, 600.0),
            shard(3, 1000, 600.0),
        ];
        // n_min = 1: only the honest committee remains.
        assert_eq!(engine.admissible(2, &reports, 1).len(), 1);
        // n_min = 3: both quarantined committees are readmitted.
        assert_eq!(engine.admissible(2, &reports, 3).len(), 3);
    }

    #[test]
    fn checkpoint_roundtrip_reproduces_decisions() {
        let config = DefenseConfig::paper();
        let feed = |engine: &mut DefenseEngine, epoch: u64| {
            engine.end_epoch(
                epoch,
                &[
                    ob(1, 2000, 600.0, Some(1000), 600.0),
                    ob(2, 1000, 600.0, Some(1000), 600.0),
                ],
            );
        };
        // Uninterrupted run.
        let mut a = DefenseEngine::new(config).unwrap();
        for epoch in 0..12 {
            a.screen(epoch, &[shard(1, 2000, 600.0), shard(2, 1000, 600.0)]);
            feed(&mut a, epoch);
        }
        // Interrupted at epoch 3 (mid-quarantine for committee 1, which
        // serves epochs 2..4), serialized through JSON, restored, then
        // continued.
        let mut b = DefenseEngine::new(config).unwrap();
        for epoch in 0..3 {
            b.screen(epoch, &[shard(1, 2000, 600.0), shard(2, 1000, 600.0)]);
            feed(&mut b, epoch);
        }
        assert!(b.is_quarantined(CommitteeId(1), 3));
        let json = serde_json::to_string(&b.checkpoint()).unwrap();
        let restored: DefenseCheckpoint = serde_json::from_str(&json).unwrap();
        let mut b = DefenseEngine::from_checkpoint(&restored).unwrap();
        for epoch in 3..12 {
            b.screen(epoch, &[shard(1, 2000, 600.0), shard(2, 1000, 600.0)]);
            feed(&mut b, epoch);
        }
        assert_eq!(
            serde_json::to_string(&a.checkpoint()).unwrap(),
            serde_json::to_string(&b.checkpoint()).unwrap()
        );
    }

    #[test]
    fn events_are_emitted_on_flag_quarantine_and_rehabilitation() {
        let (obs, buffer) = Obs::memory(mvcom_obs::ObsLevel::Events);
        let mut engine = DefenseEngine::new(DefenseConfig::paper())
            .unwrap()
            .with_obs(obs);
        for epoch in 0..2 {
            engine.end_epoch(epoch, &[ob(9, 2000, 600.0, Some(1000), 600.0)]);
        }
        let until = engine.records[&CommitteeId(9)].quarantined_until.unwrap();
        engine.screen(until, &[shard(9, 1000, 600.0)]);
        engine.obs.flush();
        let text = buffer.contents();
        assert!(text.contains("\"kind\":\"flagged\""), "{text}");
        assert!(text.contains("\"kind\":\"quarantine\""), "{text}");
        assert!(text.contains("\"kind\":\"rehabilitated\""), "{text}");
    }
}
