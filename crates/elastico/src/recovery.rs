//! Stage 4 over a chaos network: the delivery [`ElasticoSim::run_epoch_in`]
//! takes when [`EpochEnv::recovery`](crate::epoch::EpochEnv::recovery) is
//! set. It replaces direct delivery with a deadline-aware pipeline that
//! survives committees dying mid-epoch. Each committee's *realized* shard
//! travels the network; the selector is asked about its *reported* one,
//! which differs only under an
//! [`EpochEnv::adversary`](crate::epoch::EpochEnv::adversary).
//!
//! 1. **Shard submission over a chaos-wrapped network** — each member
//!    committee ships its shard to the final committee over a simulated
//!    submission network with the configured [`ChaosConfig`] installed.
//!    Dropped submissions are retried with capped exponential backoff; a
//!    committee that cannot get its shard through before the consensus
//!    deadline is excluded (and recorded as timed out).
//! 2. **Heartbeat monitoring** — while the scheduler works, the final
//!    committee pings every submitted committee at a fixed interval
//!    through [`Network::ping`]; the phi-accrual [`HeartbeatMonitor`]
//!    turns missed pongs into failure verdicts (paper §V-A: a failed
//!    committee is perceived as infinite ping latency).
//! 3. **Online re-solving** — each detected failure is forwarded to the
//!    [`ShardSelector`], which removes the committee from the scheduler's
//!    solution space (the MVCom implementation trims the SE engine via
//!    `DynamicsPolicy::Trim`) and keeps iterating. A batch-only selector
//!    such as [`WaitForAll`](crate::epoch::WaitForAll) is handed the
//!    survivors at the end instead.
//! 4. **Graceful degradation** — the final block is assembled from the
//!    surviving admitted committees; a detected failure degrades the block
//!    instead of aborting the epoch.
//!
//! The submission network maps the final committee to [`FINAL_NODE`] and
//! the *i*-th surviving shard of the epoch to [`submission_node`]`(i)`;
//! [`ChaosConfig`] crash schedules address those node ids.

use serde::Serialize;

use mvcom_obs::Value;
use mvcom_simnet::{ChaosConfig, ChaosInjector, ChaosStats, Network, NetworkConfig};
use mvcom_types::{CommitteeId, Error, NodeId, Result, ShardInfo, SimTime};

use crate::detector::{CommitteeHealth, HeartbeatConfig, HeartbeatMonitor, PHI_THRESHOLD};
use crate::epoch::{ElasticoSim, ShardSelector};

/// The final committee's node id on the submission network.
pub const FINAL_NODE: NodeId = NodeId(0);

/// The most heartbeat rounds one epoch may run (`consensus_deadline /
/// interval`); each round pings every submitted committee, so a tiny
/// positive interval would otherwise run for hours.
pub const MAX_HEARTBEAT_ROUNDS: u64 = 1_000_000;

/// The submission-network node id of the `i`-th surviving shard (in
/// [`EpochReport::shards`](crate::epoch::EpochReport::shards) order).
/// Chaos crash schedules that should kill an admitted committee mid-epoch
/// address this id.
pub fn submission_node(shard_index: usize) -> NodeId {
    NodeId(shard_index as u32 + 1)
}

/// Maximum resubmission attempts per shard after the first send.
pub const MAX_SUBMISSION_RETRIES: u32 = 8;

/// First retry delay, s; later retries double it.
pub const BACKOFF_BASE_SECS: f64 = 5.0;

/// Upper bound on any single retry delay, s.
pub const BACKOFF_CAP_SECS: f64 = 300.0;

/// Solver iterations granted to the [`ShardSelector`] per heartbeat round.
pub const SOLVER_ITERATIONS_PER_ROUND: u64 = 50;

/// Tunables of the fault-tolerant epoch runner.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryConfig {
    /// Fault model installed on the submission network.
    pub chaos: ChaosConfig,
    /// Heartbeat failure-detector parameters.
    pub heartbeat: HeartbeatConfig,
}

impl RecoveryConfig {
    /// Fault-free defaults: no chaos, 30 s heartbeats.
    pub fn paper() -> RecoveryConfig {
        RecoveryConfig {
            chaos: ChaosConfig::none(),
            heartbeat: HeartbeatConfig::paper(),
        }
    }

    /// Validates all components.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<()> {
        self.chaos.validate()?;
        self.heartbeat.validate()
    }
}

/// Fault-tolerance telemetry of one epoch under chaos delivery, embedded in
/// [`EpochReport::robustness`](crate::epoch::EpochReport::robustness).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RobustnessReport {
    /// Heartbeat pings sent by the final committee.
    pub heartbeats_sent: u64,
    /// Heartbeats that went unanswered.
    pub heartbeats_missed: u64,
    /// Committees declared failed, with the detection time.
    pub failures_detected: Vec<(CommitteeId, SimTime)>,
    /// Committees classified as stragglers at epoch end (alive but with
    /// round-trips far above the population median).
    pub stragglers: Vec<CommitteeId>,
    /// Shard resubmission attempts beyond each first send.
    pub submission_retries: u64,
    /// Committees whose shard never got through before the deadline.
    pub submissions_timed_out: Vec<CommitteeId>,
    /// Fault counters of the submission-network chaos injector.
    pub chaos: ChaosStats,
    /// Whether the final block lost at least one admitted committee to a
    /// detected failure (graceful degradation engaged).
    pub degraded: bool,
}

impl ElasticoSim {
    /// Refuses an invalid `recovery` before stage 1 runs.
    ///
    /// # Errors
    ///
    /// Configuration errors from `recovery`, and [`Error::InvalidConfig`]
    /// naming `interval` when the consensus deadline holds more than
    /// [`MAX_HEARTBEAT_ROUNDS`] heartbeats.
    pub(crate) fn check_recovery(&self, recovery: &RecoveryConfig) -> Result<()> {
        recovery.validate()?;
        let deadline = self.config().consensus_deadline;
        let interval = recovery.heartbeat.interval.as_secs();
        let rounds = deadline.as_secs() / interval;
        if rounds > MAX_HEARTBEAT_ROUNDS as f64 {
            return Err(Error::invalid_config(
                "interval",
                format!(
                    "at most {MAX_HEARTBEAT_ROUNDS} heartbeat rounds per epoch, got {rounds:.0} \
                     ({}s deadline / {interval}s)",
                    deadline.as_secs()
                ),
            ));
        }
        Ok(())
    }

    /// Stage 4 over the chaos network, as the [module docs](crate::recovery)
    /// describe: `truth[i]` times and sizes the `i`-th submission, while
    /// the selector is asked about `reported[i]`. Returns the admitted
    /// survivors and the epoch's fault-tolerance telemetry.
    ///
    /// # Errors
    ///
    /// [`Error::Simulation`] when no shard survives submission or every
    /// submitted committee dies before the final consensus; errors from
    /// the selector's `begin` and `on_failure`.
    pub(crate) fn deliver_over_chaos<S: ShardSelector + ?Sized>(
        &mut self,
        selector: &mut S,
        recovery: &RecoveryConfig,
        truth: &[ShardInfo],
        reported: &[ShardInfo],
    ) -> Result<(Vec<CommitteeId>, RobustnessReport)> {
        let deadline = self.config().consensus_deadline;
        let obs = self.obs().clone();
        let bytes_per_tx = self.config().bytes_per_tx;
        obs.add(
            "chaos.crashes_injected",
            recovery.chaos.crashes.len() as u64,
        );

        // The submission network: node 0 is the final committee, node 1+i
        // the i-th surviving shard's committee, chaos installed on top.
        let net_config = NetworkConfig {
            nodes: truth.len() as u32 + 1,
            ..self.config().net
        };
        let mut net = Network::new(net_config, self.fork_rng("submission-net"))?;
        net.set_chaos(ChaosInjector::new(
            recovery.chaos.clone(),
            self.fork_rng("chaos"),
        )?);

        // Phase 1: shard submission with capped exponential backoff.
        let mut submitted: Vec<(ShardInfo, NodeId, SimTime)> = Vec::new();
        let mut submission_retries = 0u64;
        let mut submissions_timed_out = Vec::new();
        for (idx, (shard, claim)) in truth.iter().zip(reported).enumerate() {
            let from = submission_node(idx);
            let payload = shard.tx_count() as usize * bytes_per_tx;
            let mut at = shard.two_phase_latency();
            let mut arrival = None;
            for attempt in 0..=MAX_SUBMISSION_RETRIES {
                if at > deadline {
                    break;
                }
                if attempt > 0 {
                    submission_retries += 1;
                    obs.emit(
                        "submission_retry",
                        at.as_secs(),
                        &[
                            (
                                "committee",
                                Value::U64(u64::from(shard.committee().value())),
                            ),
                            ("attempt", Value::U64(u64::from(attempt))),
                        ],
                    );
                    obs.incr("recovery.retries");
                }
                if let Some(t) = net.send(from, FINAL_NODE, payload, at) {
                    arrival = Some(t);
                    break;
                }
                let backoff =
                    (BACKOFF_BASE_SECS * f64::from(1u32 << attempt)).min(BACKOFF_CAP_SECS);
                at += SimTime::from_secs(backoff);
            }
            match arrival {
                Some(t) if t <= deadline => submitted.push((*claim, from, t)),
                _ => submissions_timed_out.push(shard.committee()),
            }
        }
        if submitted.is_empty() {
            return Err(Error::simulation(
                "no shard submission reached the final committee before the deadline",
            ));
        }

        // Phase 2: hand the submitted reports to the scheduler and monitor
        // the submitting committees until the deadline.
        let shards_in: Vec<ShardInfo> = submitted.iter().map(|(s, ..)| *s).collect();
        selector.begin(&shards_in)?;
        let mut monitor = HeartbeatMonitor::new(recovery.heartbeat)?;
        for (shard, _, arrival) in &submitted {
            monitor.register(shard.committee(), *arrival);
        }
        let start = submitted
            .iter()
            .map(|(.., t)| *t)
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut failures_detected: Vec<(CommitteeId, SimTime)> = Vec::new();
        let mut now = start + recovery.heartbeat.interval;
        while now < deadline {
            for (shard, node, _) in &submitted {
                let committee = shard.committee();
                // The final committee stops pinging a committee it has
                // already written off.
                if failures_detected.iter().any(|(c, _)| *c == committee) {
                    continue;
                }
                let rtt = net.ping(FINAL_NODE, *node, now);
                monitor.observe(committee, rtt, now);
                let phi = monitor.phi(committee, now);
                // Sample the suspicion trajectory once it becomes
                // interesting (half the declaration threshold); healthy
                // committees with φ ≈ 0 stay silent in the event stream.
                if phi >= PHI_THRESHOLD / 2.0 {
                    obs.emit(
                        "suspicion",
                        now.as_secs(),
                        &[
                            ("committee", Value::U64(u64::from(committee.value()))),
                            ("phi", Value::F64(phi)),
                        ],
                    );
                }
                if monitor.health(committee, now) == CommitteeHealth::Failed {
                    failures_detected.push((committee, now));
                    obs.emit(
                        "failure_declared",
                        now.as_secs(),
                        &[
                            ("committee", Value::U64(u64::from(committee.value()))),
                            ("phi", Value::F64(phi)),
                        ],
                    );
                    obs.incr("recovery.failures_declared");
                    selector.on_failure(committee)?;
                }
            }
            selector.advance(SOLVER_ITERATIONS_PER_ROUND);
            now += recovery.heartbeat.interval;
        }

        // Phase 3: assemble the final block from the admitted survivors.
        let survivors: Vec<ShardInfo> = shards_in
            .into_iter()
            .filter(|s| !failures_detected.iter().any(|(f, _)| *f == s.committee()))
            .collect();
        if survivors.is_empty() {
            return Err(Error::simulation(
                "every submitted committee failed before the final consensus",
            ));
        }
        let live = |c: &CommitteeId| survivors.iter().any(|s| s.committee() == *c);
        let mut included: Vec<CommitteeId> = selector
            .finish(&survivors)
            .into_iter()
            .filter(live)
            .collect();
        if included.is_empty() {
            // Graceful degradation: never let a confused scheduler produce
            // an empty block while live committees exist.
            included = survivors.iter().map(|s| s.committee()).collect();
        }

        let stragglers: Vec<CommitteeId> = monitor
            .classify(now)
            .into_iter()
            .filter(|(_, h)| *h == CommitteeHealth::Straggler)
            .map(|(c, _)| c)
            .collect();
        let detector_stats = monitor.stats();
        let robustness = RobustnessReport {
            heartbeats_sent: detector_stats.heartbeats_sent,
            heartbeats_missed: detector_stats.heartbeats_missed,
            degraded: !failures_detected.is_empty(),
            failures_detected,
            stragglers,
            submission_retries,
            submissions_timed_out,
            chaos: net.chaos_stats().unwrap_or_default(),
        };
        Ok((included, robustness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{ElasticoConfig, EpochEnv, EpochReport, WaitForAll};
    use mvcom_simnet::CrashEvent;

    fn recovering<S: ShardSelector + ?Sized>(
        sim: &mut ElasticoSim,
        selector: &mut S,
        recovery: &RecoveryConfig,
    ) -> Result<EpochReport> {
        let env = EpochEnv {
            recovery: Some(recovery),
            ..EpochEnv::default()
        };
        sim.run_epoch_in(selector, &env).map(|(report, _)| report)
    }

    /// A batch-only selector: records what `select` was asked and keeps
    /// the first half of it, so only the provided online verbs run.
    #[derive(Default)]
    struct FirstHalf {
        asked: Vec<CommitteeId>,
    }

    impl ShardSelector for FirstHalf {
        fn select(&mut self, shards: &[ShardInfo]) -> Vec<CommitteeId> {
            self.asked = shards.iter().map(|s| s.committee()).collect();
            self.asked[..shards.len().div_ceil(2)].to_vec()
        }
    }

    #[test]
    fn a_batch_only_selector_is_asked_about_the_survivors_only() {
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::none().with_crash(CrashEvent::permanent(
                submission_node(1),
                SimTime::from_secs(2_500.0),
            )),
            ..RecoveryConfig::paper()
        };
        let run = || {
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
            let mut selector = FirstHalf::default();
            let report = recovering(&mut sim, &mut selector, &recovery).unwrap();
            let mut json = String::new();
            report.write_json(&mut json);
            (report, selector.asked, json)
        };
        let (report, asked, json) = run();
        let victim = report.shards[1].committee();
        let robustness = report.robustness.clone().unwrap();
        assert_eq!(robustness.failures_detected.len(), 1);
        assert_eq!(robustness.failures_detected[0].0, victim);
        let survivors: Vec<CommitteeId> = report
            .shards
            .iter()
            .map(|s| s.committee())
            .filter(|&c| c != victim)
            .collect();
        assert_eq!(asked, survivors, "select sees the survivors in order");
        assert_eq!(
            report.final_block.included,
            survivors[..survivors.len().div_ceil(2)]
        );
        assert!(!report.final_block.included.contains(&victim));
        assert_eq!(run().2, json, "the same seed writes the same report");
    }

    #[test]
    fn an_empty_coalition_under_chaos_delivery_is_chaos_delivery_alone() {
        use mvcom_dataset::{AdversaryConfig, Starver};
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::lossy(0.1).with_crash(CrashEvent::permanent(
                submission_node(1),
                SimTime::from_secs(2_500.0),
            )),
            ..RecoveryConfig::paper()
        };
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
        let alone = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap();
        let adversary = Starver::new(AdversaryConfig::new(0.0, 19).unwrap());
        let env = EpochEnv {
            adversary: Some(&adversary),
            recovery: Some(&recovery),
        };
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
        let (report, reports) = sim.run_epoch_in(&mut WaitForAll, &env).unwrap();
        assert_eq!(report, alone);
        assert!(reports
            .iter()
            .all(|r| !r.adversarial && r.reported == r.truth));
        assert!(alone.robustness.is_some_and(|r| r.degraded));
    }

    #[test]
    fn more_heartbeat_rounds_than_the_cap_are_refused_before_stage_1() {
        let mut recovery = RecoveryConfig::paper();
        recovery.heartbeat.interval = SimTime::from_secs(1e-6);
        let (obs, buf) = mvcom_obs::Obs::memory(mvcom_obs::ObsLevel::Events);
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19)
            .unwrap()
            .with_obs(obs);
        let err = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap_err();
        assert!(
            matches!(
                err,
                Error::InvalidConfig {
                    parameter: "interval",
                    ..
                }
            ),
            "{err}"
        );
        assert!(buf.contents().is_empty(), "no stage ran");
    }

    #[test]
    fn config_validation_rejects_degenerates() {
        let mut r = RecoveryConfig::paper();
        r.heartbeat.interval = SimTime::ZERO;
        assert!(r.validate().is_err());
        let mut r = RecoveryConfig::paper();
        r.chaos.drop_prob = 2.0;
        assert!(r.validate().is_err());
        assert!(RecoveryConfig::paper().validate().is_ok());
    }

    #[test]
    fn fault_free_recovery_matches_wait_for_all_admission() {
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 11).unwrap();
        let report = recovering(&mut sim, &mut WaitForAll, &RecoveryConfig::paper()).unwrap();
        assert!(report.final_block.committed);
        assert_eq!(report.final_block.included.len(), report.shards.len());
        let robustness = report
            .robustness
            .expect("recovering epochs carry telemetry");
        assert!(!robustness.degraded);
        assert!(robustness.failures_detected.is_empty());
        assert!(robustness.submissions_timed_out.is_empty());
        assert!(robustness.heartbeats_sent > 0);
        assert_eq!(robustness.heartbeats_missed, 0);
    }

    #[test]
    fn recovering_runner_is_deterministic_per_seed() {
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::lossy(0.2),
            ..RecoveryConfig::paper()
        };
        let run = || {
            let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 13).unwrap();
            recovering(&mut sim, &mut WaitForAll, &recovery).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lossy_links_force_retries_but_the_epoch_still_commits() {
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::lossy(0.4),
            ..RecoveryConfig::paper()
        };
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 17).unwrap();
        let report = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap();
        assert!(report.final_block.committed);
        let robustness = report.robustness.unwrap();
        assert!(
            robustness.submission_retries > 0 || robustness.heartbeats_missed > 0,
            "40% loss should leave a trace in the counters: {robustness:?}"
        );
        assert!(robustness.chaos.dropped > 0);
    }

    #[test]
    fn crashed_committee_is_detected_and_dropped_from_the_block() {
        // Kill the second surviving shard's committee mid-epoch; the crash
        // is permanent, so heartbeats to it observe infinite latency.
        let crash_at = SimTime::from_secs(2_500.0);
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::none()
                .with_crash(CrashEvent::permanent(submission_node(1), crash_at)),
            ..RecoveryConfig::paper()
        };
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19).unwrap();
        let report = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap();
        let victim = report.shards[1].committee();
        let robustness = report.robustness.clone().unwrap();
        assert!(robustness.degraded);
        assert_eq!(robustness.failures_detected.len(), 1);
        let (failed, detected_at) = robustness.failures_detected[0];
        assert_eq!(failed, victim);
        assert!(
            detected_at >= crash_at,
            "detection cannot precede the crash"
        );
        assert!(report.final_block.committed);
        assert!(!report.final_block.included.contains(&victim));
        assert_eq!(
            report.final_block.included.len(),
            report.shards.len() - 1,
            "exactly the victim is excluded"
        );
    }

    #[test]
    fn telemetry_traces_an_injected_crash_through_detection() {
        let crash_at = SimTime::from_secs(2_500.0);
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::none()
                .with_crash(CrashEvent::permanent(submission_node(1), crash_at)),
            ..RecoveryConfig::paper()
        };
        let (obs, buf) = mvcom_obs::Obs::memory(mvcom_obs::ObsLevel::Events);
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 19)
            .unwrap()
            .with_obs(obs.clone());
        let report = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap();
        let victim = report.shards[1].committee();
        let text = buf.contents();
        let victim_key = format!("\"committee\":{}", victim.value());
        let suspicion = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"suspicion\"") && l.contains(&victim_key))
            .count();
        assert!(suspicion > 0, "crash must leave a suspicion series");
        assert!(
            text.contains("\"kind\":\"failure_declared\""),
            "declaration missing:\n{text}"
        );
        assert_eq!(obs.invalid_dropped(), 0);
    }

    #[test]
    fn crash_before_submission_times_the_shard_out() {
        // The victim dies before its shard can ever reach the final
        // committee: every submission attempt is crash-dropped.
        let recovery = RecoveryConfig {
            chaos: ChaosConfig::none()
                .with_crash(CrashEvent::permanent(submission_node(0), SimTime::ZERO)),
            ..RecoveryConfig::paper()
        };
        let mut sim = ElasticoSim::new(ElasticoConfig::small_test(), 23).unwrap();
        let report = recovering(&mut sim, &mut WaitForAll, &recovery).unwrap();
        let victim = report.shards[0].committee();
        let robustness = report.robustness.clone().unwrap();
        assert_eq!(robustness.submissions_timed_out, vec![victim]);
        assert!(robustness.submission_retries > 0);
        assert!(robustness.chaos.crash_dropped > 0);
        assert!(!report.final_block.included.contains(&victim));
    }
}
