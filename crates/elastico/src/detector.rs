//! Heartbeat-based failure detection for member committees (paper §V-A).
//!
//! The final committee "perceives a failed member committee by using the
//! ping network protocol" — a failed committee's observed latency becomes
//! infinite. This module turns that observation into an online detector in
//! the phi-accrual style (Hayashibara et al.): instead of a binary timeout,
//! each committee accrues a *suspicion level* φ that grows with the time
//! since its last successful heartbeat, normalized by the inter-arrival
//! statistics observed while it was healthy. Crossing [`PHI_THRESHOLD`]
//! classifies the committee as **failed**; a committee that answers but
//! with round-trips far above the population median is a **straggler**
//! (the slow committees of paper Fig. 1 that MVCom's scheduler leaves out).
//!
//! Detections reach the scheduler through
//! [`ShardSelector::on_failure`](crate::epoch::ShardSelector::on_failure)
//! (the MVCom selector trims its SE engine with `DynamicsPolicy::Trim` —
//! the §V solution-space surgery — rather than replaying scripted
//! `TimedEvent` sequences); the fault-tolerant runner in
//! [`crate::recovery`] owns that wiring.

use std::collections::BTreeMap;

use mvcom_types::{CommitteeId, Error, Result, SimTime};

/// Suspicion level at which a committee is declared failed. With
/// exponential inter-arrival tails, φ grows by `log10(e) ≈ 0.434` per mean
/// interval of silence, so 2.0 tolerates roughly four to five consecutive
/// missed heartbeats.
pub const PHI_THRESHOLD: f64 = 2.0;

/// A committee whose mean round-trip exceeds this multiple of the
/// population median is classified as a straggler.
pub const STRAGGLER_FACTOR: f64 = 3.0;

/// Heartbeat observations required before φ is trusted; until then a
/// silent committee is only *suspected* once `2 × interval` elapses.
pub const MIN_SAMPLES: u32 = 3;

/// Tunables of the heartbeat failure detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatConfig {
    /// Ping period.
    pub interval: SimTime,
}

impl HeartbeatConfig {
    /// Pings sized for epoch timescales: every 30 s.
    pub fn paper() -> HeartbeatConfig {
        HeartbeatConfig {
            interval: SimTime::from_secs(30.0),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        if self.interval.as_secs() <= 0.0 || self.interval.is_infinite() {
            return Err(Error::invalid_config(
                "interval",
                format!(
                    "heartbeat interval must be positive and finite, got {}",
                    self.interval
                ),
            ));
        }
        Ok(())
    }
}

/// What the detector currently believes about one committee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitteeHealth {
    /// Answering pings with unremarkable latency.
    Healthy,
    /// Answering, but with round-trips [`STRAGGLER_FACTOR`]× above the
    /// population median — the Fig. 1 straggler the scheduler should not
    /// wait for.
    Straggler,
    /// Suspicion crossed [`PHI_THRESHOLD`]: treated as crashed (§V-A
    /// infinite ping latency).
    Failed,
}

/// Aggregate detector counters, surfaced through the CLI.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Heartbeats sent (pongs received + missed).
    pub heartbeats_sent: u64,
    /// Heartbeats that went unanswered.
    pub heartbeats_missed: u64,
}

#[derive(Debug, Clone, Copy)]
struct MemberState {
    last_heard: SimTime,
    /// Streaming mean of successful inter-arrival gaps.
    gap_mean_secs: f64,
    gap_samples: u32,
    /// Streaming mean of observed round-trip times.
    rtt_mean_secs: f64,
    rtt_samples: u32,
    missed: u64,
    failed: bool,
}

/// The phi-accrual heartbeat monitor the final committee runs over its
/// member committees.
#[derive(Debug, Clone)]
pub struct HeartbeatMonitor {
    config: HeartbeatConfig,
    members: BTreeMap<CommitteeId, MemberState>,
    sent: u64,
    missed: u64,
}

impl HeartbeatMonitor {
    /// Builds a monitor from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`HeartbeatConfig::validate`].
    pub fn new(config: HeartbeatConfig) -> Result<HeartbeatMonitor> {
        config.validate()?;
        Ok(HeartbeatMonitor {
            config,
            members: BTreeMap::new(),
            sent: 0,
            missed: 0,
        })
    }

    /// Starts monitoring `committee`, treating `now` as its last-heard
    /// time. Re-registering resets the committee's state.
    pub fn register(&mut self, committee: CommitteeId, now: SimTime) {
        self.members.insert(
            committee,
            MemberState {
                last_heard: now,
                gap_mean_secs: self.config.interval.as_secs(),
                gap_samples: 0,
                rtt_mean_secs: 0.0,
                rtt_samples: 0,
                missed: 0,
                failed: false,
            },
        );
    }

    /// Records the outcome of one ping sent at `now`: a finite `rtt` is a
    /// pong, [`SimTime::INFINITY`] a miss (the §V-A signal).
    pub fn observe(&mut self, committee: CommitteeId, rtt: SimTime, now: SimTime) {
        let Some(state) = self.members.get_mut(&committee) else {
            return;
        };
        self.sent += 1;
        if rtt.is_infinite() {
            self.missed += 1;
            state.missed += 1;
            return;
        }
        let gap = (now - state.last_heard).as_secs().max(f64::MIN_POSITIVE);
        state.gap_samples += 1;
        state.gap_mean_secs += (gap - state.gap_mean_secs) / f64::from(state.gap_samples);
        state.rtt_samples += 1;
        state.rtt_mean_secs += (rtt.as_secs() - state.rtt_mean_secs) / f64::from(state.rtt_samples);
        state.last_heard = now;
        state.failed = false;
    }

    /// The suspicion level of `committee` at time `now`: the negative
    /// decimal log of the probability that a healthy committee would stay
    /// silent this long, under an exponential inter-arrival model —
    /// `φ = (now − last_heard) / mean_gap · log10(e)`. Unknown committees
    /// accrue infinite suspicion.
    pub fn phi(&self, committee: CommitteeId, now: SimTime) -> f64 {
        let Some(state) = self.members.get(&committee) else {
            return f64::INFINITY;
        };
        let silence = (now - state.last_heard).as_secs().max(0.0);
        let mean = if state.gap_samples >= MIN_SAMPLES {
            state.gap_mean_secs
        } else {
            // Too few samples to trust the estimate: fall back to twice
            // the ping period so early flakiness is not fatal.
            2.0 * self.config.interval.as_secs()
        };
        silence / mean.max(f64::MIN_POSITIVE) * std::f64::consts::LOG10_E
    }

    /// Classifies `committee` at time `now`. Once failed, a committee
    /// stays failed until a fresh pong is observed.
    pub fn health(&mut self, committee: CommitteeId, now: SimTime) -> CommitteeHealth {
        let phi = self.phi(committee, now);
        let median_rtt = self.median_rtt();
        let Some(state) = self.members.get_mut(&committee) else {
            return CommitteeHealth::Failed;
        };
        if state.failed || phi >= PHI_THRESHOLD {
            state.failed = true;
            return CommitteeHealth::Failed;
        }
        if state.rtt_samples >= MIN_SAMPLES
            && median_rtt > 0.0
            && state.rtt_mean_secs > STRAGGLER_FACTOR * median_rtt
        {
            return CommitteeHealth::Straggler;
        }
        CommitteeHealth::Healthy
    }

    /// Classifies every monitored committee at time `now`.
    pub fn classify(&mut self, now: SimTime) -> Vec<(CommitteeId, CommitteeHealth)> {
        let ids: Vec<CommitteeId> = self.members.keys().copied().collect();
        ids.into_iter()
            .map(|id| (id, self.health(id, now)))
            .collect()
    }

    /// Aggregate heartbeat counters.
    pub fn stats(&self) -> DetectorStats {
        DetectorStats {
            heartbeats_sent: self.sent,
            heartbeats_missed: self.missed,
        }
    }

    fn median_rtt(&self) -> f64 {
        let mut rtts: Vec<f64> = self
            .members
            .values()
            .filter(|s| s.rtt_samples > 0)
            .map(|s| s.rtt_mean_secs)
            .collect();
        if rtts.is_empty() {
            return 0.0;
        }
        rtts.sort_by(f64::total_cmp);
        rtts[rtts.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HeartbeatMonitor {
        let config = HeartbeatConfig {
            interval: SimTime::from_secs(10.0),
        };
        HeartbeatMonitor::new(config).unwrap()
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let mut c = HeartbeatConfig::paper();
        c.interval = SimTime::ZERO;
        assert!(c.validate().is_err());
        c.interval = SimTime::INFINITY;
        assert!(c.validate().is_err());
        assert!(HeartbeatConfig::paper().validate().is_ok());
    }

    #[test]
    fn responsive_committee_stays_healthy() {
        let mut m = monitor();
        let c = CommitteeId(1);
        m.register(c, secs(0.0));
        for k in 1..=20 {
            let now = secs(10.0 * f64::from(k));
            m.observe(c, secs(0.2), now);
            assert_eq!(m.health(c, now), CommitteeHealth::Healthy, "tick {k}");
        }
        let stats = m.stats();
        assert_eq!(stats.heartbeats_sent, 20);
        assert_eq!(stats.heartbeats_missed, 0);
    }

    #[test]
    fn silence_accrues_suspicion_until_failure() {
        let mut m = monitor();
        let c = CommitteeId(2);
        m.register(c, secs(0.0));
        // Establish a healthy baseline of 10 s gaps.
        for k in 1..=5 {
            m.observe(c, secs(0.3), secs(10.0 * f64::from(k)));
        }
        // Then the committee crashes: every later ping misses.
        let mut detected_at = None;
        for k in 6..=20 {
            let now = secs(10.0 * f64::from(k));
            m.observe(c, SimTime::INFINITY, now);
            if m.health(c, now) == CommitteeHealth::Failed {
                detected_at = Some(now);
                break;
            }
        }
        let detected_at = detected_at.expect("failure must be detected");
        // φ = 2.0 with a ~10 s mean gap crosses after ~46 s of silence.
        assert!(detected_at.as_secs() > 60.0 && detected_at.as_secs() <= 110.0);
        // Failed state is sticky while silence continues.
        assert_eq!(m.health(c, secs(1_000.0)), CommitteeHealth::Failed);
        assert!(m.stats().heartbeats_missed > 0);
    }

    #[test]
    fn recovery_clears_the_failed_flag() {
        let mut m = monitor();
        let c = CommitteeId(3);
        m.register(c, secs(0.0));
        for k in 1..=5 {
            m.observe(c, secs(0.3), secs(10.0 * f64::from(k)));
        }
        for k in 6..=15 {
            m.observe(c, SimTime::INFINITY, secs(10.0 * f64::from(k)));
        }
        assert_eq!(m.health(c, secs(150.0)), CommitteeHealth::Failed);
        // The node restarts and a pong arrives.
        m.observe(c, secs(0.3), secs(160.0));
        assert_eq!(m.health(c, secs(160.0)), CommitteeHealth::Healthy);
    }

    #[test]
    fn slow_but_alive_committee_is_a_straggler() {
        let mut m = monitor();
        // Five fast committees and one with 10× their round-trip.
        for id in 0..5 {
            m.register(CommitteeId(id), secs(0.0));
        }
        m.register(CommitteeId(9), secs(0.0));
        for k in 1..=6 {
            let now = secs(10.0 * f64::from(k));
            for id in 0..5 {
                m.observe(CommitteeId(id), secs(0.2), now);
            }
            m.observe(CommitteeId(9), secs(2.0), now);
        }
        assert_eq!(
            m.health(CommitteeId(9), secs(60.0)),
            CommitteeHealth::Straggler
        );
        let classified = m.classify(secs(60.0));
        let stragglers: Vec<CommitteeId> = classified
            .iter()
            .filter(|(_, h)| *h == CommitteeHealth::Straggler)
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(stragglers, vec![CommitteeId(9)]);
        assert!(classified
            .iter()
            .all(|(_, h)| *h != CommitteeHealth::Failed));
    }

    #[test]
    fn unknown_committee_is_failed() {
        let mut m = monitor();
        assert!(m.phi(CommitteeId(42), secs(0.0)).is_infinite());
        assert_eq!(
            m.health(CommitteeId(42), secs(0.0)),
            CommitteeHealth::Failed
        );
    }

    #[test]
    fn early_silence_with_few_samples_uses_the_lenient_fallback() {
        let mut m = monitor();
        let c = CommitteeId(5);
        m.register(c, secs(0.0));
        // No samples yet: 20 s of silence over the 2×interval fallback is
        // φ ≈ 0.43 — suspected but not failed.
        assert!(m.phi(c, secs(20.0)) < PHI_THRESHOLD);
        assert_eq!(m.health(c, secs(20.0)), CommitteeHealth::Healthy);
    }
}
