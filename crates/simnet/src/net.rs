//! Simulated peer-to-peer network.
//!
//! [`Network`] models message delivery between nodes: each send samples a
//! delay from a [`LatencyModel`] and returns the arrival time, which callers
//! feed into their [`Scheduler`](crate::event::Scheduler). Every fault is a
//! [`ChaosInjector`] installed with [`Network::set_chaos`]: a message it
//! drops, or one to or from a node inside a scheduled outage, returns
//! `None`, and a ping across it observes an infinite latency — exactly how
//! the final committee "perceives a failed member committee by using the
//! ping network protocol".

use mvcom_types::{Error, NodeId, Result, SimTime};

use crate::chaos::{ChaosInjector, ChaosStats};
use crate::latency::{LatencyModel, Sampler};

/// Static configuration of a simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Number of nodes, identified `0..nodes`.
    pub nodes: u32,
    /// Delay model for one point-to-point message.
    pub link_latency: LatencyModel,
    /// Extra per-KiB serialization/transfer delay in seconds (bandwidth
    /// term); `0.0` disables size-dependent delay.
    pub secs_per_kib: f64,
}

impl NetworkConfig {
    /// A LAN-ish default: 50 ms ± jitter links, 1 Gbit/s-ish bandwidth.
    pub fn lan(nodes: u32) -> NetworkConfig {
        NetworkConfig {
            nodes,
            link_latency: LatencyModel::ShiftedExponential {
                offset_secs: 0.030,
                mean_secs: 0.020,
            },
            secs_per_kib: 8.0 / 1_000_000.0,
        }
    }

    /// A WAN-ish default: 200 ms links with heavy jitter, 50 Mbit/s.
    pub fn wan(nodes: u32) -> NetworkConfig {
        NetworkConfig {
            nodes,
            link_latency: LatencyModel::ShiftedExponential {
                offset_secs: 0.120,
                mean_secs: 0.080,
            },
            secs_per_kib: 8.0 / 50_000.0,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.nodes == 0 {
            return Err(Error::invalid_config(
                "nodes",
                "network needs at least one node",
            ));
        }
        if !self.secs_per_kib.is_finite() || self.secs_per_kib < 0.0 {
            return Err(Error::invalid_config(
                "secs_per_kib",
                format!("must be finite and non-negative, got {}", self.secs_per_kib),
            ));
        }
        Ok(())
    }
}

/// A simulated P2P network whose faults are a [`ChaosInjector`] schedule.
///
/// The network is *timeless*: it computes arrival times but does not own the
/// event queue, so several protocols can share one network while driving
/// their own schedulers.
///
/// # Example
///
/// ```
/// use mvcom_simnet::{Network, NetworkConfig, rng};
/// use mvcom_types::{NodeId, SimTime};
///
/// let mut net = Network::new(NetworkConfig::lan(4), rng::master(1)).unwrap();
/// let sent_at = SimTime::ZERO;
/// let arrival = net.send(NodeId(0), NodeId(1), 256, sent_at).unwrap();
/// assert!(arrival > sent_at);
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    /// `config.link_latency`, prepared once.
    link: Sampler,
    rng: crate::rng::SimRng,
    chaos: Option<ChaosInjector>,
}

impl Network {
    /// Creates a network from a validated configuration and an RNG stream.
    pub fn new(config: NetworkConfig, rng: crate::rng::SimRng) -> Result<Network> {
        config.validate()?;
        Ok(Network {
            config,
            link: config.link_latency.sampler(),
            rng,
            chaos: None,
        })
    }

    /// Installs a fault injector: from now on every send and ping is
    /// subject to its drop/spike/outage model. Protocols built on the
    /// network need no changes — they are chaos-wrapped transparently.
    pub fn set_chaos(&mut self, injector: ChaosInjector) {
        self.chaos = Some(injector);
    }

    /// Fault counters of the installed injector, if any.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(ChaosInjector::stats)
    }

    /// The network's static configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of nodes.
    pub fn len(&self) -> u32 {
        self.config.nodes
    }

    /// Returns `true` if the network has no nodes (never true for a
    /// validated config; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.config.nodes == 0
    }

    /// Whether `node` is one of the network's `0..nodes`.
    fn in_range(&self, node: NodeId) -> bool {
        node.0 < self.config.nodes
    }

    /// The bandwidth term of one `payload_bytes` message.
    fn transfer(&self, payload_bytes: usize) -> SimTime {
        SimTime::from_secs(self.config.secs_per_kib * (payload_bytes as f64 / 1024.0))
    }

    /// Draws the arrival time of one accepted message.
    fn arrival(&mut self, sent_at: SimTime, transfer: SimTime, extra: SimTime) -> SimTime {
        sent_at + self.link.sample(&mut self.rng) + transfer + extra
    }

    /// Sends `payload_bytes` from `from` to `to` at time `sent_at`.
    ///
    /// Returns the arrival time, or `None` if the message is dropped: an
    /// endpoint outside `0..nodes`, an endpoint inside a scheduled outage,
    /// or a lossy link. Self-sends arrive immediately (zero network delay).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: usize,
        sent_at: SimTime,
    ) -> Option<SimTime> {
        if !self.in_range(from) || !self.in_range(to) {
            return None;
        }
        let mut extra = SimTime::ZERO;
        if let Some(chaos) = &mut self.chaos {
            if chaos.node_down_at(from, sent_at) || chaos.node_down_at(to, sent_at) {
                chaos.count_crash_drop();
                return None;
            }
            extra = chaos.judge_message()?;
        }
        if from == to {
            return Some(sent_at + extra);
        }
        let transfer = self.transfer(payload_bytes);
        Some(self.arrival(sent_at, transfer, extra))
    }

    /// Broadcasts from `from` to every node in `recipients`, returning
    /// `(recipient, arrival)` for each message that was delivered.
    ///
    /// Exactly the [`Network::send`] loop over `recipients` minus `from` —
    /// same draws in the same order, same fault counters — with what does
    /// not depend on the recipient decided once: while `from` is in range
    /// and no chaos injector is installed, every in-range recipient is
    /// reachable.
    pub fn broadcast<I>(
        &mut self,
        from: NodeId,
        recipients: I,
        payload_bytes: usize,
        sent_at: SimTime,
    ) -> Vec<(NodeId, SimTime)>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let recipients = recipients.into_iter();
        let mut deliveries = Vec::with_capacity(recipients.size_hint().0);
        let all_reachable = self.in_range(from) && self.chaos.is_none();
        let transfer = self.transfer(payload_bytes);
        for to in recipients.filter(|&to| to != from) {
            let arrival = if all_reachable && self.in_range(to) {
                Some(self.arrival(sent_at, transfer, SimTime::ZERO))
            } else {
                self.send(from, to, payload_bytes, sent_at)
            };
            deliveries.extend(arrival.map(|at| (to, at)));
        }
        deliveries
    }

    /// The latency a ping from `from` to `to` observes at simulated time
    /// `now`: a sampled round trip, or [`SimTime::INFINITY`] when an
    /// endpoint is outside `0..nodes` or inside a scheduled outage, or the
    /// lossy link loses the ping or its pong — the failure detector the
    /// paper describes in §V-A. An outage does not count a ping as a
    /// dropped message; the lossy link judges it like any message pair.
    pub fn ping(&mut self, from: NodeId, to: NodeId, now: SimTime) -> SimTime {
        if let Some(chaos) = &self.chaos {
            if chaos.node_down_at(from, now) || chaos.node_down_at(to, now) {
                return SimTime::INFINITY;
            }
        }
        if !self.in_range(from) || !self.in_range(to) {
            return SimTime::INFINITY;
        }
        let out = self.link.sample(&mut self.rng);
        let back = self.link.sample(&mut self.rng);
        let rtt = out + back;
        // A lossy link loses the ping (or its pong) with the same
        // probability it loses any other message pair.
        match &mut self.chaos {
            None => rtt,
            Some(chaos) => match (chaos.judge_message(), chaos.judge_message()) {
                (Some(a), Some(b)) => rtt + a + b,
                _ => SimTime::INFINITY,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, CrashEvent};
    use crate::rng;

    fn net(nodes: u32) -> Network {
        Network::new(NetworkConfig::lan(nodes), rng::master(11)).unwrap()
    }

    /// `config` installed on `n` with a fixed injector seed.
    fn with_chaos(mut n: Network, config: ChaosConfig) -> Network {
        n.set_chaos(ChaosInjector::new(config, rng::master(6)).unwrap());
        n
    }

    /// Every message the injector refused: lossy links plus outages.
    fn fault_drops(n: &Network) -> u64 {
        let stats = n.chaos_stats().unwrap();
        stats.dropped + stats.crash_dropped
    }

    #[test]
    fn config_validation() {
        assert!(NetworkConfig::lan(0).validate().is_err());
        assert!(NetworkConfig::lan(3).validate().is_ok());
        let bad = NetworkConfig {
            secs_per_kib: -1.0,
            ..NetworkConfig::lan(3)
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn send_returns_future_arrival() {
        let mut n = net(4);
        let sent = SimTime::from_secs(10.0);
        let arrival = n.send(NodeId(0), NodeId(1), 128, sent).unwrap();
        assert!(arrival > sent);
        assert!(!n.ping(NodeId(0), NodeId(1), sent).is_infinite());
    }

    #[test]
    fn self_send_is_instant() {
        let mut n = net(2);
        let sent = SimTime::from_secs(5.0);
        assert_eq!(n.send(NodeId(1), NodeId(1), 64, sent), Some(sent));
    }

    #[test]
    fn out_of_range_endpoints_are_refused() {
        let mut n = with_chaos(net(3), ChaosConfig::none());
        for (from, to) in [(NodeId(0), NodeId(3)), (NodeId(3), NodeId(0))] {
            assert_eq!(n.send(from, to, 10, SimTime::ZERO), None);
            assert_eq!(n.ping(from, to, SimTime::ZERO), SimTime::INFINITY);
        }
        assert!(n
            .broadcast(NodeId(3), (0..3).map(NodeId), 10, SimTime::ZERO)
            .is_empty());
        // A refused endpoint is an input error, not an injected fault.
        assert_eq!(fault_drops(&n), 0);
    }

    #[test]
    fn broadcast_skips_sender_and_dead_nodes() {
        let mut n = with_chaos(
            net(5),
            ChaosConfig::none().with_crash(CrashEvent::permanent(NodeId(4), SimTime::ZERO)),
        );
        let deliveries = n.broadcast(NodeId(0), (0..6).map(NodeId), 32, SimTime::ZERO);
        let recipients: Vec<u32> = deliveries.iter().map(|(id, _)| id.0).collect();
        assert_eq!(recipients, vec![1, 2, 3]);
        for (_, t) in deliveries {
            assert!(t > SimTime::ZERO);
        }
        assert_eq!(n.chaos_stats().unwrap().crash_dropped, 1);
    }

    /// `broadcast` as the `send` loop it used to be.
    fn send_loop(
        n: &mut Network,
        from: NodeId,
        to: &[NodeId],
        at: SimTime,
    ) -> Vec<(NodeId, SimTime)> {
        to.iter()
            .filter(|&&to| to != from)
            .filter_map(|&to| n.send(from, to, 700, at).map(|t| (to, t)))
            .collect()
    }

    #[test]
    fn broadcast_is_the_send_loop_under_every_fault() {
        let outage =
            CrashEvent::with_restart(NodeId(7), SimTime::from_secs(3.0), SimTime::from_secs(6.0));
        let faults = [
            None,
            // Outages alone: the slow path with no injector draws.
            Some(
                ChaosConfig::none()
                    .with_crash(outage)
                    .with_crash(CrashEvent::permanent(NodeId(5), SimTime::ZERO)),
            ),
            Some(
                ChaosConfig {
                    spike_prob: 0.3,
                    spike: LatencyModel::Constant { secs: 2.0 },
                    ..ChaosConfig::lossy(0.25)
                }
                .with_crash(outage),
            ),
        ];
        let build = |chaos: &Option<ChaosConfig>| {
            let n = Network::new(NetworkConfig::wan(12), rng::master(21)).unwrap();
            match chaos {
                Some(config) => with_chaos(n, config.clone()),
                None => n,
            }
        };
        // In range, out of range (13, 40) and the sender itself, twice.
        let recipients: Vec<NodeId> = (0..14).chain([2, 40, 3]).map(NodeId).collect();
        for (case, chaos) in faults.iter().enumerate() {
            let (mut looped, mut hoisted) = (build(chaos), build(chaos));
            for round in 0..40u32 {
                let from = NodeId(round % 13);
                let at = SimTime::from_secs(f64::from(round) * 0.25);
                assert_eq!(
                    hoisted.broadcast(from, recipients.iter().copied(), 700, at),
                    send_loop(&mut looped, from, &recipients, at),
                    "case {case} round {round}"
                );
                assert_eq!(hoisted.chaos_stats(), looped.chaos_stats());
            }
            // Both link streams stand at the same draw: the next delivered
            // message arrives at the same time on both.
            let late = SimTime::from_secs(100.0);
            let next =
                |n: &mut Network| (0..).find_map(|_| n.send(NodeId(0), NodeId(1), 700, late));
            assert_eq!(
                next(&mut hoisted),
                next(&mut looped),
                "case {case}: RNG position"
            );
        }
    }

    #[test]
    fn bandwidth_term_grows_with_payload() {
        let config = NetworkConfig {
            nodes: 2,
            link_latency: LatencyModel::Constant { secs: 0.1 },
            secs_per_kib: 0.01,
        };
        let mut n = Network::new(config, rng::master(0)).unwrap();
        let small = n.send(NodeId(0), NodeId(1), 1024, SimTime::ZERO).unwrap();
        let large = n
            .send(NodeId(0), NodeId(1), 10 * 1024, SimTime::ZERO)
            .unwrap();
        assert!((small.as_secs() - 0.11).abs() < 1e-9);
        assert!((large.as_secs() - 0.20).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = net(4);
        let mut b = Network::new(NetworkConfig::lan(4), rng::master(11)).unwrap();
        for i in 0..50u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            assert_eq!(
                a.send(from, to, 100, SimTime::ZERO),
                b.send(from, to, 100, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn chaos_drops_are_counted_and_conserved() {
        let config = ChaosConfig::lossy(0.5).with_crash(CrashEvent::with_restart(
            NodeId(2),
            SimTime::from_secs(500.0),
            SimTime::from_secs(1_000.0),
        ));
        let mut n = with_chaos(net(4), config);
        let sends = 2_000u64;
        let mut refused = 0;
        for i in 0..sends {
            let at = SimTime::from_secs(i as f64);
            refused += u64::from(n.send(NodeId((i % 3) as u32), NodeId(3), 64, at).is_none());
        }
        // Every `None` is counted once, in exactly one bucket.
        assert_eq!(fault_drops(&n), refused);
        let stats = n.chaos_stats().unwrap();
        assert_eq!(
            stats.crash_dropped,
            (500..1_000u64).filter(|i| i % 3 == 2).count() as u64
        );
        let lossy = sends - stats.crash_dropped;
        assert!(stats.dropped > lossy / 3 && stats.dropped < 2 * lossy / 3);
    }

    #[test]
    fn scheduled_outage_blackholes_sends_and_pings() {
        let config = ChaosConfig::none().with_crash(CrashEvent::with_restart(
            NodeId(2),
            SimTime::from_secs(100.0),
            SimTime::from_secs(300.0),
        ));
        let mut n = with_chaos(net(3), config);
        // Before the outage: alive.
        assert!(n
            .send(NodeId(0), NodeId(2), 8, SimTime::from_secs(50.0))
            .is_some());
        assert!(!n
            .ping(NodeId(0), NodeId(2), SimTime::from_secs(50.0))
            .is_infinite());
        // During: dead both ways, and each drop is attributed to the outage.
        let during = SimTime::from_secs(150.0);
        assert!(n.send(NodeId(0), NodeId(2), 8, during).is_none());
        assert!(n.send(NodeId(2), NodeId(0), 8, during).is_none());
        assert!(n.ping(NodeId(0), NodeId(2), during).is_infinite());
        assert!(n.ping(NodeId(2), NodeId(0), during).is_infinite());
        // Pings are observations, not messages: only the two sends count.
        assert_eq!(n.chaos_stats().unwrap().crash_dropped, 2);
        // After the restart: alive again.
        assert!(n
            .send(NodeId(0), NodeId(2), 8, SimTime::from_secs(350.0))
            .is_some());
        assert!(!n
            .ping(NodeId(0), NodeId(2), SimTime::from_secs(350.0))
            .is_infinite());
    }

    #[test]
    fn chaos_does_not_perturb_the_base_latency_stream() {
        // Same network seed, chaos with drop_prob 0 installed on one of
        // them: deliveries must see identical arrival times because the
        // injector draws from its own stream.
        let mut plain = net(4);
        let mut chaotic = with_chaos(net(4), ChaosConfig::none());
        for i in 0..100u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            assert_eq!(
                plain.send(from, to, 64, SimTime::ZERO),
                chaotic.send(from, to, 64, SimTime::ZERO)
            );
        }
    }

    #[test]
    fn latency_spikes_delay_delivery() {
        let config = NetworkConfig {
            nodes: 2,
            link_latency: LatencyModel::Constant { secs: 0.1 },
            secs_per_kib: 0.0,
        };
        let mut n = with_chaos(
            Network::new(config, rng::master(0)).unwrap(),
            ChaosConfig {
                spike_prob: 1.0,
                spike: LatencyModel::Constant { secs: 3.0 },
                ..ChaosConfig::none()
            },
        );
        let arrival = n.send(NodeId(0), NodeId(1), 16, SimTime::ZERO).unwrap();
        assert!((arrival.as_secs() - 3.1).abs() < 1e-9);
    }
}
