//! Simulated peer-to-peer network.
//!
//! [`Network`] models message delivery between nodes: each send samples a
//! delay from a [`LatencyModel`] and returns the arrival time, which callers
//! feed into their [`Scheduler`](crate::event::Scheduler). Nodes can crash
//! and recover, and arbitrary partitions can be installed; messages to or
//! from an unreachable node are dropped (returning `None`), which is exactly
//! how the final committee "perceives a failed member committee by using the
//! ping network protocol" — the observed latency becomes infinite.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use mvcom_types::{Error, NodeId, Result, SimTime};

use crate::chaos::{ChaosInjector, ChaosStats};
use crate::latency::{LatencyModel, Sampler};

/// Static configuration of a simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Counters describing everything a [`Network`] delivered or dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages dropped for any reason (endpoint down, partitioned away,
    /// or killed by the chaos injector). `delivered + dropped` always
    /// equals the number of `send` calls, whatever faults are active.
    pub dropped: u64,
    /// Of `dropped`, the messages killed by the chaos injector (lossy
    /// links and scheduled outages).
    pub chaos_dropped: u64,
    /// Total payload bytes accepted for delivery.
    pub bytes: u64,
}

/// A simulated P2P network with crashes and partitions.
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
    down: BTreeSet<NodeId>,
    /// Partition groups: nodes in different groups cannot communicate.
    /// Empty means fully connected.
    partition: Vec<BTreeSet<NodeId>>,
    stats: NetworkStats,
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
            down: BTreeSet::new(),
            partition: Vec::new(),
            stats: NetworkStats::default(),
            chaos: None,
        })
    }

    /// Installs a fault injector: from now on every send and ping is
    /// subject to its drop/spike/outage model. Protocols built on the
    /// network need no changes — they are chaos-wrapped transparently.
    pub fn set_chaos(&mut self, injector: ChaosInjector) {
        self.chaos = Some(injector);
    }

    /// Removes the fault injector, returning it (with its counters).
    pub fn clear_chaos(&mut self) -> Option<ChaosInjector> {
        self.chaos.take()
    }

    /// Fault counters of the installed injector, if any.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(ChaosInjector::stats)
    }

    /// The network's static configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Delivery/drop counters so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
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

    /// Marks `node` as crashed: every message to or from it is dropped.
    pub fn crash(&mut self, node: NodeId) {
        self.down.insert(node);
    }

    /// Recovers a crashed node.
    pub fn recover(&mut self, node: NodeId) {
        self.down.remove(&node);
    }

    /// Returns `true` if `node` is currently up.
    pub fn is_up(&self, node: NodeId) -> bool {
        node.0 < self.config.nodes && !self.down.contains(&node)
    }

    /// Installs a partition: nodes in different groups cannot exchange
    /// messages. Nodes absent from every group remain connected to each
    /// other (they form an implicit extra group).
    pub fn set_partition(&mut self, groups: Vec<BTreeSet<NodeId>>) {
        self.partition = groups;
    }

    /// Removes any partition.
    pub fn heal_partition(&mut self) {
        self.partition.clear();
    }

    fn group_of(&self, node: NodeId) -> Option<usize> {
        self.partition.iter().position(|g| g.contains(&node))
    }

    /// Returns `true` if `a` and `b` can currently exchange messages.
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_up(a) || !self.is_up(b) {
            return false;
        }
        self.group_of(a) == self.group_of(b)
    }

    /// The bandwidth term of one `payload_bytes` message.
    fn transfer(&self, payload_bytes: usize) -> SimTime {
        SimTime::from_secs(self.config.secs_per_kib * (payload_bytes as f64 / 1024.0))
    }

    /// Books one accepted message and draws its arrival time.
    fn deliver(
        &mut self,
        payload_bytes: usize,
        sent_at: SimTime,
        transfer: SimTime,
        extra: SimTime,
    ) -> SimTime {
        self.stats.delivered += 1;
        self.stats.bytes += payload_bytes as u64;
        sent_at + self.link.sample(&mut self.rng) + transfer + extra
    }

    /// Sends `payload_bytes` from `from` to `to` at time `sent_at`.
    ///
    /// Returns the arrival time, or `None` if the message is dropped
    /// (either endpoint down or partitioned away). Self-sends arrive
    /// immediately (zero network delay).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: usize,
        sent_at: SimTime,
    ) -> Option<SimTime> {
        if !self.connected(from, to) {
            self.stats.dropped += 1;
            return None;
        }
        let mut extra = SimTime::ZERO;
        if let Some(chaos) = &mut self.chaos {
            if chaos.node_down_at(from, sent_at) || chaos.node_down_at(to, sent_at) {
                chaos.count_crash_drop();
                self.stats.dropped += 1;
                self.stats.chaos_dropped += 1;
                return None;
            }
            match chaos.judge_message() {
                None => {
                    self.stats.dropped += 1;
                    self.stats.chaos_dropped += 1;
                    return None;
                }
                Some(spike) => extra = spike,
            }
        }
        if from == to {
            self.stats.delivered += 1;
            self.stats.bytes += payload_bytes as u64;
            return Some(sent_at + extra);
        }
        let transfer = self.transfer(payload_bytes);
        Some(self.deliver(payload_bytes, sent_at, transfer, extra))
    }

    /// Broadcasts from `from` to every node in `recipients`, returning
    /// `(recipient, arrival)` for each message that was delivered.
    ///
    /// Exactly the [`Network::send`] loop over `recipients` minus `from` —
    /// same draws in the same order, same counters — with what does not
    /// depend on the recipient decided once: while no node is crashed, no
    /// partition is installed and no chaos injector is attached, every
    /// in-range recipient is reachable.
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
        let nodes = self.config.nodes;
        let all_reachable = from.0 < nodes
            && self.down.is_empty()
            && self.partition.is_empty()
            && self.chaos.is_none();
        let transfer = self.transfer(payload_bytes);
        for to in recipients.filter(|&to| to != from) {
            let arrival = if all_reachable && to.0 < nodes {
                Some(self.deliver(payload_bytes, sent_at, transfer, SimTime::ZERO))
            } else {
                self.send(from, to, payload_bytes, sent_at)
            };
            deliveries.extend(arrival.map(|at| (to, at)));
        }
        deliveries
    }

    /// The latency a `ping` from `from` to `to` would observe: a sampled
    /// round trip, or [`SimTime::INFINITY`] when unreachable — the failure
    /// detector the paper describes in §V-A.
    pub fn ping(&mut self, from: NodeId, to: NodeId) -> SimTime {
        if !self.connected(from, to) {
            return SimTime::INFINITY;
        }
        let out = self.link.sample(&mut self.rng);
        let back = self.link.sample(&mut self.rng);
        out + back
    }

    /// Like [`Network::ping`], but evaluated at simulated time `now` so the
    /// chaos injector's scheduled outages apply: pinging a node inside its
    /// outage window observes [`SimTime::INFINITY`]. This is the heartbeat
    /// primitive the failure detector drives.
    pub fn ping_at(&mut self, from: NodeId, to: NodeId, now: SimTime) -> SimTime {
        if let Some(chaos) = &self.chaos {
            if chaos.node_down_at(from, now) || chaos.node_down_at(to, now) {
                return SimTime::INFINITY;
            }
        }
        let rtt = self.ping(from, to);
        if rtt.is_infinite() {
            return rtt;
        }
        // A lossy link loses the ping (or its pong) with the same
        // probability it loses any other message pair.
        if let Some(chaos) = &mut self.chaos {
            match (chaos.judge_message(), chaos.judge_message()) {
                (Some(a), Some(b)) => return rtt + a + b,
                _ => return SimTime::INFINITY,
            }
        }
        rtt
    }

    /// Mutable access to the RNG stream, for callers that need correlated
    /// auxiliary draws (e.g. jittering retry timers).
    pub fn rng_mut(&mut self) -> &mut crate::rng::SimRng {
        &mut self.rng
    }

    /// Convenience: draw from an arbitrary distribution using the network's
    /// RNG stream.
    pub fn sample_from(&mut self, model: &LatencyModel) -> SimTime {
        model.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn net(nodes: u32) -> Network {
        Network::new(NetworkConfig::lan(nodes), rng::master(11)).unwrap()
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
        assert_eq!(n.stats().delivered, 1);
        assert_eq!(n.stats().bytes, 128);
    }

    #[test]
    fn self_send_is_instant() {
        let mut n = net(2);
        let sent = SimTime::from_secs(5.0);
        assert_eq!(n.send(NodeId(1), NodeId(1), 64, sent), Some(sent));
    }

    #[test]
    fn crash_drops_messages_and_ping_is_infinite() {
        let mut n = net(3);
        n.crash(NodeId(2));
        assert!(!n.is_up(NodeId(2)));
        assert_eq!(n.send(NodeId(0), NodeId(2), 10, SimTime::ZERO), None);
        assert_eq!(n.send(NodeId(2), NodeId(0), 10, SimTime::ZERO), None);
        assert_eq!(n.ping(NodeId(0), NodeId(2)), SimTime::INFINITY);
        // Pings are observations, not messages: only the two sends count.
        assert_eq!(n.stats().dropped, 2);
        n.recover(NodeId(2));
        assert!(n.is_up(NodeId(2)));
        assert!(n.send(NodeId(0), NodeId(2), 10, SimTime::ZERO).is_some());
        assert!(!n.ping(NodeId(0), NodeId(2)).is_infinite());
    }

    #[test]
    fn out_of_range_node_is_down() {
        let n = net(3);
        assert!(!n.is_up(NodeId(3)));
    }

    #[test]
    fn partition_blocks_cross_group_traffic() {
        let mut n = net(4);
        n.set_partition(vec![
            [NodeId(0), NodeId(1)].into_iter().collect(),
            [NodeId(2)].into_iter().collect(),
        ]);
        assert!(n.connected(NodeId(0), NodeId(1)));
        assert!(!n.connected(NodeId(0), NodeId(2)));
        // Node 3 is in no explicit group: it forms the implicit group.
        assert!(!n.connected(NodeId(3), NodeId(0)));
        assert!(n.connected(NodeId(3), NodeId(3)));
        n.heal_partition();
        assert!(n.connected(NodeId(0), NodeId(2)));
    }

    #[test]
    fn broadcast_skips_sender_and_dead_nodes() {
        let mut n = net(5);
        n.crash(NodeId(4));
        let deliveries = n.broadcast(NodeId(0), (0..5).map(NodeId), 32, SimTime::ZERO);
        let recipients: Vec<u32> = deliveries.iter().map(|(id, _)| id.0).collect();
        assert_eq!(recipients, vec![1, 2, 3]);
        for (_, t) in deliveries {
            assert!(t > SimTime::ZERO);
        }
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
        use crate::chaos::{ChaosConfig, ChaosInjector, CrashEvent};
        use rand::Rng;
        let build = |faults: u32| {
            let mut n = Network::new(NetworkConfig::wan(12), rng::master(21)).unwrap();
            if faults & 1 != 0 {
                n.crash(NodeId(5));
            }
            if faults & 2 != 0 {
                n.set_partition(vec![
                    (0..4).map(NodeId).collect(),
                    (4..9).map(NodeId).collect(),
                ]);
            }
            if faults & 4 != 0 {
                let config = ChaosConfig {
                    spike_prob: 0.3,
                    spike: LatencyModel::Constant { secs: 2.0 },
                    ..ChaosConfig::lossy(0.25)
                }
                .with_crash(CrashEvent::with_restart(
                    NodeId(7),
                    SimTime::from_secs(3.0),
                    SimTime::from_secs(6.0),
                ));
                n.set_chaos(ChaosInjector::new(config, rng::master(22)).unwrap());
            }
            n
        };
        // In range, out of range (13, 40) and the sender itself, twice.
        let recipients: Vec<NodeId> = (0..14).chain([2, 40, 3]).map(NodeId).collect();
        for faults in 0..8 {
            let (mut looped, mut hoisted) = (build(faults), build(faults));
            for round in 0..40u32 {
                let from = NodeId(round % 13);
                let at = SimTime::from_secs(f64::from(round) * 0.25);
                assert_eq!(
                    hoisted.broadcast(from, recipients.iter().copied(), 700, at),
                    send_loop(&mut looped, from, &recipients, at),
                    "faults {faults:#b} round {round}"
                );
                assert_eq!(
                    hoisted.stats(),
                    looped.stats(),
                    "faults {faults:#b} round {round}"
                );
                assert_eq!(hoisted.chaos_stats(), looped.chaos_stats());
            }
            assert_eq!(
                hoisted.rng_mut().gen::<u64>(),
                looped.rng_mut().gen::<u64>(),
                "faults {faults:#b}: RNG position"
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
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let mut n = net(4);
        n.set_chaos(ChaosInjector::new(ChaosConfig::lossy(0.5), rng::master(5)).unwrap());
        let sends = 2_000u64;
        for i in 0..sends {
            let _ = n.send(NodeId((i % 3) as u32), NodeId(3), 64, SimTime::ZERO);
        }
        let stats = n.stats();
        assert_eq!(stats.delivered + stats.dropped, sends);
        assert_eq!(stats.chaos_dropped, stats.dropped);
        assert!(stats.dropped > sends / 3 && stats.dropped < 2 * sends / 3);
        let chaos = n.clear_chaos().unwrap();
        assert_eq!(chaos.stats().dropped, stats.chaos_dropped);
    }

    #[test]
    fn scheduled_outage_blackholes_sends_and_pings() {
        use crate::chaos::{ChaosConfig, ChaosInjector, CrashEvent};
        let mut n = net(3);
        let config = ChaosConfig::none().with_crash(CrashEvent::with_restart(
            NodeId(2),
            SimTime::from_secs(100.0),
            SimTime::from_secs(300.0),
        ));
        n.set_chaos(ChaosInjector::new(config, rng::master(6)).unwrap());
        // Before the outage: alive.
        assert!(n
            .send(NodeId(0), NodeId(2), 8, SimTime::from_secs(50.0))
            .is_some());
        assert!(!n
            .ping_at(NodeId(0), NodeId(2), SimTime::from_secs(50.0))
            .is_infinite());
        // During: dead, and the drop is attributed to chaos.
        assert!(n
            .send(NodeId(0), NodeId(2), 8, SimTime::from_secs(150.0))
            .is_none());
        assert!(n
            .ping_at(NodeId(0), NodeId(2), SimTime::from_secs(150.0))
            .is_infinite());
        assert_eq!(n.stats().chaos_dropped, 1);
        // After the restart: alive again.
        assert!(n
            .send(NodeId(0), NodeId(2), 8, SimTime::from_secs(350.0))
            .is_some());
        assert!(!n
            .ping_at(NodeId(0), NodeId(2), SimTime::from_secs(350.0))
            .is_infinite());
    }

    #[test]
    fn chaos_does_not_perturb_the_base_latency_stream() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        // Same network seed, chaos with drop_prob 0 installed on one of
        // them: deliveries must see identical arrival times because the
        // injector draws from its own stream.
        let mut plain = net(4);
        let mut chaotic = net(4);
        chaotic.set_chaos(ChaosInjector::new(ChaosConfig::none(), rng::master(77)).unwrap());
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
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let config = NetworkConfig {
            nodes: 2,
            link_latency: LatencyModel::Constant { secs: 0.1 },
            secs_per_kib: 0.0,
        };
        let mut n = Network::new(config, rng::master(0)).unwrap();
        n.set_chaos(
            ChaosInjector::new(
                ChaosConfig {
                    spike_prob: 1.0,
                    spike: LatencyModel::Constant { secs: 3.0 },
                    ..ChaosConfig::none()
                },
                rng::master(1),
            )
            .unwrap(),
        );
        let arrival = n.send(NodeId(0), NodeId(1), 16, SimTime::ZERO).unwrap();
        assert!((arrival.as_secs() - 3.1).abs() < 1e-9);
    }
}
