//! Driving a PBFT committee over the simulated network.

use serde::Serialize;

use mvcom_obs::{Obs, Value};
use mvcom_simnet::event::Scheduler;
use mvcom_simnet::{LatencyModel, Network, SimRng};
use mvcom_types::{Error, Hash32, NodeId, Result, SimTime};

use crate::message::Message;
use crate::replica::{Behavior, Outbound, Replica, Target};

/// Configuration of one PBFT consensus run.
#[derive(Debug, Clone, PartialEq)]
pub struct PbftConfig {
    /// Committee size `n` (must be ≥ 4; tolerates `f = ⌊(n−1)/3⌋`).
    pub n: u32,
    /// Per-replica behaviours; defaults to all-honest. Index = replica.
    pub behaviors: Vec<Behavior>,
    /// Proposal (block body) size in bytes, for bandwidth modelling.
    pub block_bytes: usize,
    /// Per-replica verification delay applied when processing a proposal
    /// (models transaction verification cost).
    pub verify_delay: LatencyModel,
    /// View-change timeout: how long a replica waits in a view without
    /// committing before voting to depose the leader.
    pub view_timeout: SimTime,
    /// Give up entirely after this much simulated time.
    pub deadline: SimTime,
}

impl PbftConfig {
    /// A committee of `n` honest replicas with small verification cost and
    /// generous timeouts.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] if `n < 4`.
    pub fn new(n: u32) -> Result<PbftConfig> {
        if n < 4 {
            return Err(Error::invalid_config(
                "n",
                format!("PBFT needs n >= 4, got {n}"),
            ));
        }
        Ok(PbftConfig {
            n,
            behaviors: vec![Behavior::Honest; n as usize],
            block_bytes: 64 * 1024,
            verify_delay: LatencyModel::Exponential { mean_secs: 2.0 },
            view_timeout: SimTime::from_secs(60.0),
            deadline: SimTime::from_secs(3_600.0),
        })
    }

    /// Overrides one replica's behaviour.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    #[must_use]
    pub fn with_behavior(mut self, index: u32, behavior: Behavior) -> PbftConfig {
        self.behaviors[index as usize] = behavior;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for `n < 4`, behaviour-list length
    /// mismatch, or non-positive timeouts.
    pub fn validate(&self) -> Result<()> {
        if self.n < 4 {
            return Err(Error::invalid_config("n", "PBFT needs n >= 4"));
        }
        if self.behaviors.len() != self.n as usize {
            return Err(Error::invalid_config(
                "behaviors",
                "must have exactly one behaviour per replica",
            ));
        }
        if self.view_timeout <= SimTime::ZERO {
            return Err(Error::invalid_config("view_timeout", "must be positive"));
        }
        if self.deadline <= SimTime::ZERO {
            return Err(Error::invalid_config("deadline", "must be positive"));
        }
        Ok(())
    }
}

/// The outcome of one consensus run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ConsensusResult {
    /// Whether `2f+1` replicas committed before the deadline.
    pub committed: bool,
    /// Time from proposal to the `2f+1`-th commitment (or the deadline on
    /// failure).
    pub latency: SimTime,
    /// The committed digest (zero if uncommitted).
    pub digest: Hash32,
    /// The view in which agreement was reached.
    pub final_view: u64,
    /// Total protocol messages delivered.
    pub messages_delivered: u64,
}

/// Internal simulation events. A delivery names its message by index into
/// the run's message table, so an event is 16 bytes however large a
/// [`Message`] is.
#[derive(Debug, Clone, Copy)]
enum Event {
    Deliver { to: u32, msg: usize },
    ViewTimeout { replica: u32, view: u64 },
}

const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Runs one PBFT instance over a simulated network.
pub struct PbftRunner {
    config: PbftConfig,
    network: Network,
    rng: SimRng,
    obs: Obs,
    label: String,
    /// Every message sent this run, once: `Event::Deliver` indexes it.
    messages: Vec<Message>,
}

impl PbftRunner {
    /// Creates a runner over `network`; the first `config.n` network nodes
    /// host the replicas.
    pub fn new(config: PbftConfig, network: Network, rng: SimRng) -> PbftRunner {
        PbftRunner {
            config,
            network,
            rng,
            obs: Obs::off(),
            label: String::from("pbft"),
            messages: Vec::new(),
        }
    }

    /// Attaches a telemetry handle; `label` names this consensus instance
    /// on every `pbft_*` event (e.g. `pbft-committee-3`, `pbft-final`).
    /// Timestamps are simulated seconds from the instance's proposal.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs, label: &str) -> PbftRunner {
        self.obs = obs;
        self.label = label.to_string();
        self
    }

    fn emit_phase(&self, t: SimTime, view: u64, phase: &'static str) {
        self.obs.emit(
            "pbft_phase",
            t.as_secs(),
            &[
                ("label", Value::from(self.label.as_str())),
                ("view", Value::U64(view)),
                ("phase", Value::from(phase)),
            ],
        );
    }

    fn emit_done(&self, result: &ConsensusResult) {
        self.obs.emit(
            "pbft_done",
            result.latency.as_secs(),
            &[
                ("label", Value::from(self.label.as_str())),
                ("committed", Value::Bool(result.committed)),
                ("view", Value::U64(result.final_view)),
                ("latency", Value::F64(result.latency.as_secs())),
            ],
        );
        self.obs.incr(if result.committed {
            "pbft.commits"
        } else {
            "pbft.misses"
        });
    }

    /// Executes the protocol to agreement on `digest` (or to the deadline).
    ///
    /// The event loop does O(1) bookkeeping per delivery: a [`Message`]
    /// delivered to replica `to` can only change `to`'s state (a timeout
    /// never changes a view or commit status — it only emits votes), so
    /// the timeout re-arm, the leader re-propose, the view-change
    /// telemetry, and the commit-quorum count all inspect `to` alone
    /// instead of rescanning the whole committee. Each event is one
    /// [`Scheduler::next_event`] pop.
    ///
    /// # Errors
    ///
    /// Configuration errors, or [`Error::Simulation`] if the network is
    /// smaller than the committee.
    pub fn run(mut self, digest: Hash32) -> Result<ConsensusResult> {
        self.config.validate()?;
        if self.network.len() < self.config.n {
            return Err(Error::simulation(format!(
                "network has {} nodes but the committee needs {}",
                self.network.len(),
                self.config.n
            )));
        }
        let n = self.config.n;
        let quorum = 2 * ((n - 1) / 3) + 1;
        let mut replicas: Vec<Replica> = (0..n)
            .map(|i| Replica::new(i, n, self.config.behaviors[i as usize]))
            .collect();
        // Nothing is sized by n²: the queue's run storage grows with the
        // bursts actually pushed and is recycled as runs drain.
        let mut sched: Scheduler<Event> = Scheduler::new();
        let mut delivered: u64 = 0;
        // Highest view for which each replica has an armed timeout timer.
        let mut armed_view: Vec<u64> = vec![0; n as usize];
        // Reused state-machine output buffer.
        let mut out: Vec<Outbound> = Vec::with_capacity(n as usize + 2);

        // Kick off: leader proposes, every replica arms its view-0 timer.
        replicas[0].propose_into(digest, &mut out);
        self.emit_phase(SimTime::ZERO, 0, "pre-prepare");
        self.dispatch(&mut out, 0, &mut sched);
        // Highest view any replica has entered (for view-change telemetry),
        // whether a first local commit has been observed, and the running
        // number of locally-committed replicas (only `to` can flip).
        let mut top_view: u64 = 0;
        let mut locally_committed = false;
        let mut committed_count: u32 = 0;
        for i in 0..n {
            sched.schedule_in(
                self.config.view_timeout,
                Event::ViewTimeout {
                    replica: i,
                    view: 0,
                },
            );
        }

        while let Some((now, event)) = sched.next_event() {
            if now > self.config.deadline {
                break;
            }
            match event {
                Event::Deliver { to, msg } => {
                    delivered += 1;
                    let msg = self.messages[msg];
                    let replica = &mut replicas[to as usize];
                    let was_committed = replica.committed().is_some();
                    // Verification cost for proposals.
                    if matches!(
                        msg.kind,
                        crate::message::MessageKind::PrePrepare
                            | crate::message::MessageKind::NewView
                    ) {
                        // The verification delay is modelled as already
                        // elapsed: sample and fold into the outbound sends.
                        let delay = self.config.verify_delay.sample(&mut self.rng);
                        replica.on_message_into(msg, &mut out);
                        self.dispatch_delayed(&mut out, to, &mut sched, delay);
                    } else {
                        replica.on_message_into(msg, &mut out);
                        self.dispatch(&mut out, to, &mut sched);
                    }
                    // Only `to` can have changed state. Entering a new view
                    // re-arms its timeout — even when the new leader is
                    // faulty and never proposes, so successive view changes
                    // stay live.
                    let replica = &mut replicas[to as usize];
                    let view = replica.view();
                    if view > armed_view[to as usize] && replica.committed().is_none() {
                        armed_view[to as usize] = view;
                        sched.schedule_in(
                            self.config.view_timeout,
                            Event::ViewTimeout { replica: to, view },
                        );
                    }
                    // A view change that reached quorum makes the new
                    // leader re-propose (at most once per view).
                    if replica.is_leader() && view > 0 && replica.committed().is_none() {
                        replica.propose_into(digest, &mut out);
                        if !out.is_empty() {
                            self.emit_phase(now, view, "pre-prepare");
                            self.dispatch(&mut out, to, &mut sched);
                        }
                    }
                    while view > top_view {
                        // Report each abandoned view once, even if a
                        // replica skipped several views in one delivery.
                        self.obs.emit(
                            "pbft_view_change",
                            now.as_secs(),
                            &[
                                ("label", Value::from(self.label.as_str())),
                                ("view", Value::U64(top_view)),
                            ],
                        );
                        self.obs.incr("pbft.view_changes");
                        top_view += 1;
                    }
                    let newly_committed =
                        !was_committed && replicas[to as usize].committed().is_some();
                    if newly_committed {
                        committed_count += 1;
                        if !locally_committed {
                            // The first local commit is the earliest point
                            // at which a prepared certificate is visible.
                            locally_committed = true;
                            self.emit_phase(now, replicas[to as usize].view(), "prepared");
                        }
                    }
                    // Termination: quorum of commits, reported with the
                    // first committed replica's digest and view.
                    if committed_count < quorum {
                        continue;
                    }
                    let Some((d, final_view)) = replicas
                        .iter()
                        .find_map(|r| Some((r.committed()?, r.view())))
                    else {
                        continue;
                    };
                    self.emit_phase(now, final_view, "committed");
                    let result = ConsensusResult {
                        committed: true,
                        latency: now,
                        digest: d,
                        final_view,
                        messages_delivered: delivered,
                    };
                    self.emit_done(&result);
                    return Ok(result);
                }
                Event::ViewTimeout { replica, view } => {
                    if replicas[replica as usize].view() == view
                        && replicas[replica as usize].committed().is_none()
                    {
                        replicas[replica as usize].on_timeout_into(&mut out);
                        self.dispatch(&mut out, replica, &mut sched);
                    }
                }
            }
        }
        let result = ConsensusResult {
            committed: false,
            latency: self.config.deadline,
            digest: Hash32::ZERO,
            final_view: replicas.iter().map(Replica::view).max().unwrap_or(0),
            messages_delivered: delivered,
        };
        self.emit_done(&result);
        Ok(result)
    }

    fn dispatch(&mut self, out: &mut Vec<Outbound>, from: u32, sched: &mut Scheduler<Event>) {
        self.dispatch_delayed(out, from, sched, SimTime::ZERO);
    }

    /// Schedules every queued [`Outbound`], draining (and thereby reusing)
    /// the caller's buffer. Each message enters the run's table once,
    /// whatever the number of recipients.
    fn dispatch_delayed(
        &mut self,
        out: &mut Vec<Outbound>,
        from: u32,
        sched: &mut Scheduler<Event>,
        extra: SimTime,
    ) {
        let now = sched.now() + extra;
        let sender = NodeId(from);
        for Outbound { target, message } in out.drain(..) {
            let size = message.wire_size(self.config.block_bytes);
            let msg = self.messages.len();
            self.messages.push(message);
            let mut deliver = |to: u32, at: SimTime| {
                sched.schedule_at(at, Event::Deliver { to, msg });
            };
            match target {
                // The sender's own copy is immediate, and is scheduled
                // where its index falls among the recipients: deliveries
                // that tie on time fire in the order they were scheduled.
                Target::All => {
                    let (before, after) = (0..from, from + 1..self.config.n);
                    let net = &mut self.network;
                    for (to, at) in net.broadcast(sender, before.map(NodeId), size, now) {
                        deliver(to.0, at);
                    }
                    deliver(from, now);
                    for (to, at) in net.broadcast(sender, after.map(NodeId), size, now) {
                        deliver(to.0, at);
                    }
                }
                Target::One(to) if to == from => deliver(to, now),
                Target::One(to) => {
                    if let Some(at) = self.network.send(sender, NodeId(to), size, now) {
                        deliver(to, at);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvcom_simnet::{rng, NetworkConfig};

    fn digest() -> Hash32 {
        Hash32::digest(b"shard")
    }

    fn run_with(config: PbftConfig, seed: u64) -> ConsensusResult {
        let mut master = rng::master(seed);
        let network =
            Network::new(NetworkConfig::lan(config.n), rng::fork(&mut master, "net")).unwrap();
        PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
            .run(digest())
            .unwrap()
    }

    #[test]
    fn honest_committee_commits_quickly() {
        let result = run_with(PbftConfig::new(4).unwrap(), 1);
        assert!(result.committed);
        assert_eq!(result.digest, digest());
        assert_eq!(result.final_view, 0);
        assert!(result.latency.as_secs() < 60.0);
        assert!(result.messages_delivered > 10);
    }

    #[test]
    fn larger_committee_commits() {
        let result = run_with(PbftConfig::new(13).unwrap(), 2);
        assert!(result.committed);
        assert_eq!(result.final_view, 0);
    }

    #[test]
    fn tolerates_f_silent_followers() {
        let config = PbftConfig::new(7)
            .unwrap()
            .with_behavior(5, Behavior::Silent)
            .with_behavior(6, Behavior::Silent);
        let result = run_with(config, 3);
        assert!(result.committed);
        assert_eq!(result.digest, digest());
    }

    #[test]
    fn silent_leader_triggers_view_change_and_recovery() {
        let config = PbftConfig::new(4)
            .unwrap()
            .with_behavior(0, Behavior::Silent);
        let result = run_with(config, 4);
        assert!(result.committed, "view change should recover the run");
        assert!(result.final_view >= 1);
        // Latency includes at least one full view timeout.
        assert!(result.latency >= SimTime::from_secs(60.0));
    }

    #[test]
    fn equivocating_leader_is_deposed_and_safety_holds() {
        let config = PbftConfig::new(4)
            .unwrap()
            .with_behavior(0, Behavior::Equivocate);
        let result = run_with(config, 5);
        // Equivocation cannot split the committee; after the timeout a new
        // honest leader commits the true digest.
        assert!(result.committed);
        assert_eq!(result.digest, digest());
        assert!(result.final_view >= 1);
    }

    #[test]
    fn too_many_faults_miss_the_deadline() {
        let mut config = PbftConfig::new(4)
            .unwrap()
            .with_behavior(1, Behavior::Silent)
            .with_behavior(2, Behavior::Silent);
        config.deadline = SimTime::from_secs(300.0);
        let result = run_with(config, 6);
        assert!(!result.committed);
        assert_eq!(result.latency, SimTime::from_secs(300.0));
        assert_eq!(result.digest, Hash32::ZERO);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_with(PbftConfig::new(7).unwrap(), 9);
        let b = run_with(PbftConfig::new(7).unwrap(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn latency_grows_with_committee_size() {
        // More replicas → more messages → later quorum completion (on
        // average; use fixed seeds and a margin).
        let small = run_with(PbftConfig::new(4).unwrap(), 10);
        let large = run_with(PbftConfig::new(31).unwrap(), 10);
        assert!(large.messages_delivered > small.messages_delivered * 10);
    }

    #[test]
    fn network_too_small_is_an_error() {
        let mut master = rng::master(0);
        let network = Network::new(NetworkConfig::lan(3), rng::fork(&mut master, "net")).unwrap();
        let err = PbftRunner::new(
            PbftConfig::new(4).unwrap(),
            network,
            rng::fork(&mut master, "pbft"),
        )
        .run(digest());
        assert!(err.is_err());
    }

    #[test]
    fn telemetry_covers_phases_view_changes_and_completion() {
        let (obs, buf) = Obs::memory(mvcom_obs::ObsLevel::Trace);
        let config = PbftConfig::new(4)
            .unwrap()
            .with_behavior(0, Behavior::Silent);
        let mut master = rng::master(4);
        let network =
            Network::new(NetworkConfig::lan(config.n), rng::fork(&mut master, "net")).unwrap();
        let result = PbftRunner::new(config, network, rng::fork(&mut master, "pbft"))
            .with_obs(obs.clone(), "pbft-test")
            .run(digest())
            .unwrap();
        assert!(result.committed);
        let text = buf.contents();
        for needle in [
            "\"kind\":\"pbft_phase\"",
            "\"phase\":\"pre-prepare\"",
            "\"phase\":\"prepared\"",
            "\"phase\":\"committed\"",
            "\"kind\":\"pbft_view_change\"",
            "\"kind\":\"pbft_done\"",
            "\"label\":\"pbft-test\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert_eq!(obs.invalid_dropped(), 0);
    }

    #[test]
    fn config_validation() {
        assert!(PbftConfig::new(3).is_err());
        let mut c = PbftConfig::new(4).unwrap();
        c.behaviors.pop();
        assert!(c.validate().is_err());
        let mut c = PbftConfig::new(4).unwrap();
        c.view_timeout = SimTime::ZERO;
        assert!(c.validate().is_err());
    }
}
