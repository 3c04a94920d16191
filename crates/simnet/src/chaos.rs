//! Seeded, deterministic fault injection for the simulated network.
//!
//! A [`ChaosInjector`] is the only fault model of
//! [`Network`](crate::Network): once installed via
//! [`Network::set_chaos`](crate::Network::set_chaos), every protocol built
//! on the network — PBFT, shard submission — runs under the configured
//! fault model *without any call-site changes*, because all of them reach
//! the wire through `Network::send`.
//!
//! Three fault classes are modelled, all driven by a dedicated RNG stream
//! so that enabling chaos never perturbs the network's own latency draws:
//!
//! * **message drops** — each accepted send is dropped with probability
//!   `drop_prob`, counted in [`ChaosStats::dropped`];
//! * **latency spikes** — with probability `spike_prob` a delivery pays an
//!   extra delay sampled from `spike`, modelling transient congestion;
//! * **scheduled crashes** — a node goes down at a simulated time and
//!   optionally restarts later, which is how an *admitted committee dying
//!   mid-epoch* is injected (paper §V-A perceives this as an infinite ping
//!   latency).

use rand::Rng;
use serde::Serialize;

use mvcom_types::{Error, NodeId, Result, SimTime};

use crate::latency::LatencyModel;
use crate::rng::SimRng;

/// One scheduled node outage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashEvent {
    /// The node that fails.
    pub node: NodeId,
    /// Simulated time at which the node goes down.
    pub at: SimTime,
    /// Optional restart time; `None` means the node stays down forever.
    pub restart_at: Option<SimTime>,
}

impl CrashEvent {
    /// A permanent crash of `node` at time `at`.
    pub fn permanent(node: NodeId, at: SimTime) -> CrashEvent {
        CrashEvent {
            node,
            at,
            restart_at: None,
        }
    }

    /// A crash followed by a restart.
    pub fn with_restart(node: NodeId, at: SimTime, restart_at: SimTime) -> CrashEvent {
        CrashEvent {
            node,
            at,
            restart_at: Some(restart_at),
        }
    }

    /// Whether this outage covers simulated time `now`.
    pub fn covers(&self, now: SimTime) -> bool {
        now >= self.at && self.restart_at.is_none_or(|r| now < r)
    }
}

/// The full fault model of one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Probability that an otherwise-deliverable message is dropped.
    pub drop_prob: f64,
    /// Probability that a delivered message pays an extra latency spike.
    pub spike_prob: f64,
    /// Distribution of the extra spike delay.
    pub spike: LatencyModel,
    /// Scheduled node outages.
    pub crashes: Vec<CrashEvent>,
}

impl ChaosConfig {
    /// No faults at all — the identity injector.
    pub fn none() -> ChaosConfig {
        ChaosConfig {
            drop_prob: 0.0,
            spike_prob: 0.0,
            spike: LatencyModel::Constant { secs: 0.0 },
            crashes: Vec::new(),
        }
    }

    /// Lossy links only: drop each message with probability `drop_prob`.
    pub fn lossy(drop_prob: f64) -> ChaosConfig {
        ChaosConfig {
            drop_prob,
            ..ChaosConfig::none()
        }
    }

    /// Adds a scheduled crash to the model.
    pub fn with_crash(mut self, crash: CrashEvent) -> ChaosConfig {
        self.crashes.push(crash);
        self
    }

    /// Validates probabilities and crash windows.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("spike_prob", self.spike_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(Error::invalid_config(
                    name,
                    format!("must be a probability in [0, 1], got {p}"),
                ));
            }
        }
        for crash in &self.crashes {
            if let Some(restart) = crash.restart_at {
                if restart <= crash.at {
                    return Err(Error::invalid_config(
                        "crashes",
                        format!(
                            "node {} restarts at {} but crashes at {}",
                            crash.node, restart, crash.at
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Counters describing every fault the injector introduced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ChaosStats {
    /// Messages dropped by the lossy-link model.
    pub dropped: u64,
    /// Messages delayed by a latency spike.
    pub spiked: u64,
    /// Messages dropped because a scheduled outage covered an endpoint.
    pub crash_dropped: u64,
}

/// The seeded fault injector installed into a [`Network`](crate::Network).
#[derive(Debug)]
pub struct ChaosInjector {
    config: ChaosConfig,
    rng: SimRng,
    stats: ChaosStats,
}

impl ChaosInjector {
    /// Builds an injector from a validated configuration and its own RNG
    /// stream (fork it from the run's master seed for reproducibility).
    ///
    /// # Errors
    ///
    /// Propagates [`ChaosConfig::validate`].
    pub fn new(config: ChaosConfig, rng: SimRng) -> Result<ChaosInjector> {
        config.validate()?;
        Ok(ChaosInjector {
            config,
            rng,
            stats: ChaosStats::default(),
        })
    }

    /// The fault model.
    pub fn config(&self) -> &ChaosConfig {
        &self.config
    }

    /// Fault counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Whether a scheduled outage keeps `node` down at time `now`.
    pub fn node_down_at(&self, node: NodeId, now: SimTime) -> bool {
        self.config
            .crashes
            .iter()
            .any(|c| c.node == node && c.covers(now))
    }

    /// Decides the fate of one message between live endpoints at `now`.
    ///
    /// Returns `None` when the message is dropped, or `Some(extra_delay)`
    /// (zero for the common case) when it goes through. Endpoint outages
    /// must be checked separately via [`ChaosInjector::node_down_at`] so the
    /// drop is attributed to the right counter.
    pub fn judge_message(&mut self) -> Option<SimTime> {
        if self.config.drop_prob > 0.0 && self.rng.gen_bool(self.config.drop_prob) {
            self.stats.dropped += 1;
            return None;
        }
        if self.config.spike_prob > 0.0 && self.rng.gen_bool(self.config.spike_prob) {
            self.stats.spiked += 1;
            return Some(self.config.spike.sample(&mut self.rng));
        }
        Some(SimTime::ZERO)
    }

    /// Records a message dropped because an endpoint was crashed.
    pub(crate) fn count_crash_drop(&mut self) {
        self.stats.crash_dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn validate_rejects_bad_probabilities_and_windows() {
        assert!(ChaosConfig::lossy(-0.1).validate().is_err());
        assert!(ChaosConfig::lossy(1.5).validate().is_err());
        assert!(ChaosConfig::lossy(0.3).validate().is_ok());
        let bad = ChaosConfig::none().with_crash(CrashEvent::with_restart(
            NodeId(0),
            SimTime::from_secs(10.0),
            SimTime::from_secs(5.0),
        ));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn crash_schedule_covers_the_outage_window() {
        let crash = CrashEvent::with_restart(
            NodeId(3),
            SimTime::from_secs(100.0),
            SimTime::from_secs(200.0),
        );
        let injector =
            ChaosInjector::new(ChaosConfig::none().with_crash(crash), rng::master(1)).unwrap();
        assert!(!injector.node_down_at(NodeId(3), SimTime::from_secs(99.0)));
        assert!(injector.node_down_at(NodeId(3), SimTime::from_secs(100.0)));
        assert!(injector.node_down_at(NodeId(3), SimTime::from_secs(199.0)));
        assert!(!injector.node_down_at(NodeId(3), SimTime::from_secs(200.0)));
        assert!(!injector.node_down_at(NodeId(4), SimTime::from_secs(150.0)));
    }

    #[test]
    fn permanent_crash_never_recovers() {
        let injector = ChaosInjector::new(
            ChaosConfig::none()
                .with_crash(CrashEvent::permanent(NodeId(1), SimTime::from_secs(50.0))),
            rng::master(2),
        )
        .unwrap();
        assert!(injector.node_down_at(NodeId(1), SimTime::from_secs(1e12)));
    }

    #[test]
    fn drop_rate_matches_configuration() {
        let mut injector = ChaosInjector::new(ChaosConfig::lossy(0.25), rng::master(3)).unwrap();
        let n = 20_000;
        let mut dropped = 0;
        for _ in 0..n {
            if injector.judge_message().is_none() {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / f64::from(n);
        assert!((rate - 0.25).abs() < 0.02, "observed drop rate {rate}");
        assert_eq!(injector.stats().dropped, u64::from(dropped as u32));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ChaosInjector::new(ChaosConfig::lossy(0.4), rng::master(9)).unwrap();
        let mut b = ChaosInjector::new(ChaosConfig::lossy(0.4), rng::master(9)).unwrap();
        for _ in 0..500 {
            assert_eq!(a.judge_message(), b.judge_message());
        }
    }

    #[test]
    fn spikes_add_positive_delay() {
        let config = ChaosConfig {
            spike_prob: 1.0,
            spike: LatencyModel::Constant { secs: 2.5 },
            ..ChaosConfig::none()
        };
        let mut injector = ChaosInjector::new(config, rng::master(4)).unwrap();
        assert_eq!(injector.judge_message(), Some(SimTime::from_secs(2.5)));
        assert_eq!(injector.stats().spiked, 1);
    }
}
