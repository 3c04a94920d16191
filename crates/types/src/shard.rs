//! The per-shard features the final committee evaluates.

use std::fmt;

use serde::Serialize;

use crate::id::CommitteeId;
use crate::latency::TwoPhaseLatency;
use crate::time::SimTime;

/// The two features a member committee reports to the final committee at
/// the beginning of an epoch (paper §III-A):
///
/// * `l_i` — its [two-phase latency](TwoPhaseLatency), and
/// * `s_i` — the number of transactions packaged in its shard.
///
/// A `ShardInfo` is exactly one candidate item of the MVCom selection
/// problem; it is deliberately small and `Clone`-cheap because the
/// stochastic-exploration sampler copies instances freely.
///
/// # Example
///
/// ```
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// let shard = ShardInfo::new(
///     CommitteeId(0),
///     1_000,
///     TwoPhaseLatency::new(SimTime::from_secs(700.0), SimTime::from_secs(60.0)),
/// );
/// assert_eq!(shard.tx_count(), 1_000);
/// assert_eq!(shard.two_phase_latency().as_secs(), 760.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardInfo {
    committee: CommitteeId,
    tx_count: u64,
    latency: TwoPhaseLatency,
}

impl ShardInfo {
    /// Creates the feature record for one submitted shard.
    #[inline]
    pub fn new(committee: CommitteeId, tx_count: u64, latency: TwoPhaseLatency) -> ShardInfo {
        ShardInfo {
            committee,
            tx_count,
            latency,
        }
    }

    /// The committee that produced this shard.
    #[inline]
    pub fn committee(&self) -> CommitteeId {
        self.committee
    }

    /// `s_i`: the number of transactions packaged in this shard.
    #[inline]
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// The committee's two-phase latency broken into its components.
    #[inline]
    pub fn latency(&self) -> TwoPhaseLatency {
        self.latency
    }

    /// `l_i`: the total two-phase latency used in the MVCom objective.
    #[inline]
    pub fn two_phase_latency(&self) -> SimTime {
        self.latency.total()
    }

    /// Returns a copy of this shard with its latency reduced by `ddl`
    /// (clamped at zero) — the Fig. 3 carry-over applied when the shard was
    /// refused in the previous epoch and re-enters the next one.
    #[must_use]
    pub fn carried_over(&self, ddl: SimTime) -> ShardInfo {
        ShardInfo {
            committee: self.committee,
            tx_count: self.tx_count,
            latency: self.latency.carried_over(ddl),
        }
    }
}

impl fmt::Display for ShardInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard from {} with {} txs, latency {}",
            self.committee,
            self.tx_count,
            self.latency.total()
        )
    }
}

/// What one committee told the final committee versus what it actually
/// delivered in one epoch. The adversaries of `mvcom-dataset` file it; the
/// final committee of `mvcom-core` schedules on `reported` and settles on
/// `truth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitteeReport {
    /// Ground truth: the features the committee actually realizes.
    pub truth: ShardInfo,
    /// The features the committee *claims* at formation time — what the
    /// scheduler sees.
    pub reported: ShardInfo,
    /// Whether this committee is controlled by the adversary.
    pub adversarial: bool,
}

impl CommitteeReport {
    /// An honest committee: report equals truth.
    pub fn honest(shard: ShardInfo) -> CommitteeReport {
        CommitteeReport {
            truth: shard,
            reported: shard,
            adversarial: false,
        }
    }

    /// The committee this report belongs to.
    pub fn committee(&self) -> CommitteeId {
        self.truth.committee()
    }

    /// Relative size misreport: `reported_s / true_s − 1`.
    pub fn ds(&self) -> f64 {
        self.reported.tx_count() as f64 / (self.truth.tx_count().max(1)) as f64 - 1.0
    }

    /// Relative latency misreport: `reported_l / true_l − 1`.
    pub fn dl(&self) -> f64 {
        let truth = self.truth.two_phase_latency().as_secs().max(f64::EPSILON);
        self.reported.two_phase_latency().as_secs() / truth - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(txs: u64, total_latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(1),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(total_latency)),
        )
    }

    #[test]
    fn accessors() {
        let s = shard(500, 120.0);
        assert_eq!(s.committee(), CommitteeId(1));
        assert_eq!(s.tx_count(), 500);
        assert_eq!(s.two_phase_latency().as_secs(), 120.0);
    }

    #[test]
    fn carried_over_reduces_latency() {
        let s = shard(500, 120.0);
        let c = s.carried_over(SimTime::from_secs(100.0));
        assert_eq!(c.two_phase_latency().as_secs(), 20.0);
        assert_eq!(c.tx_count(), 500);
        assert_eq!(c.committee(), s.committee());
    }

    #[test]
    fn carried_over_clamps_at_zero() {
        let s = shard(500, 120.0);
        let c = s.carried_over(SimTime::from_secs(500.0));
        assert_eq!(c.two_phase_latency(), SimTime::ZERO);
    }

    #[test]
    fn display_contains_features() {
        let s = shard(42, 10.0);
        let text = s.to_string();
        assert!(text.contains("42 txs"));
        assert!(text.contains("committee-1"));
    }

    #[test]
    fn serializes_the_three_features_by_name() {
        assert_eq!(
            serde_json::to_string(&shard(7, 33.0)).unwrap(),
            r#"{"committee":1,"tx_count":7,"latency":{"formation":33.0,"consensus":0.0}}"#
        );
    }
}
