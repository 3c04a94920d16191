//! Online handling of committee joining, leaving and failure (paper §IV-A,
//! §V, Figs. 9 & 14).
//!
//! The [`SeEngine`] exposes `handle_join` /
//! `handle_leave`; this module adds the *driver*: a scripted sequence of
//! [`TimedEvent`]s applied at given iterations while the engine runs, with
//! the utility perturbation around each event recorded — exactly what the
//! paper's dynamic-event figures plot.

use serde::{Deserialize, Serialize};

use mvcom_types::{CommitteeId, Result, ShardInfo};

use crate::se::{SeConfig, SeEngine, SeOutcome};
use crate::Instance;

/// How the solution family reacts to a dynamic event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DynamicsPolicy {
    /// Algorithm 1 lines 9–12 taken literally: on any join/leave, rebuild
    /// the instance and re-run `Initialization()` for every chain.
    #[default]
    Reinitialize,
    /// The §V analysis: trim the failed committee out of every surviving
    /// solution (`F → G`, Fig. 7) and keep exploring from the projected
    /// states; joins extend the index space in place. Converges faster
    /// after an event at the cost of less randomized restarts.
    Trim,
}

/// One scripted dynamic event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// A new committee submits its shard mid-epoch.
    Join(ShardInfo),
    /// A committee leaves gracefully or is detected as failed (infinite
    /// ping latency, §V-A).
    Leave(CommitteeId),
}

/// An event bound to the engine iteration at which it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Iteration at which the event is applied.
    pub at_iteration: u64,
    /// What happens.
    pub kind: EventKind,
}

impl TimedEvent {
    /// A join event at `at_iteration`.
    pub fn join(at_iteration: u64, shard: ShardInfo) -> TimedEvent {
        TimedEvent {
            at_iteration,
            kind: EventKind::Join(shard),
        }
    }

    /// A leave/failure event at `at_iteration`.
    pub fn leave(at_iteration: u64, committee: CommitteeId) -> TimedEvent {
        TimedEvent {
            at_iteration,
            kind: EventKind::Leave(committee),
        }
    }
}

/// The utility perturbation recorded around one applied event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Iteration at which the event was applied.
    pub at_iteration: u64,
    /// Best current utility immediately before the event.
    pub utility_before: f64,
    /// Best current utility immediately after the solution-space surgery —
    /// the perturbation bounded by Theorem 2.
    pub utility_after: f64,
    /// Whether this was a join (`true`) or leave (`false`).
    pub is_join: bool,
}

/// Outcome of an online run: the final schedule plus per-event
/// perturbations.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineOutcome {
    /// The final converged outcome over whatever the epoch looked like
    /// after the last event.
    pub outcome: SeOutcome,
    /// One record per applied event, in application order.
    pub events: Vec<EventRecord>,
}

/// Runs the SE engine over an epoch while applying a scripted sequence of
/// dynamic events — the harness behind paper Figs. 9 and 14.
///
/// Events are applied in order of `at_iteration` (ties in input order).
/// Events scheduled beyond the iteration budget are skipped.
///
/// # Errors
///
/// Propagates engine-construction and event-application errors (unknown
/// committee, duplicate join, or an event that leaves the epoch
/// infeasible).
///
/// # Example
///
/// ```
/// use mvcom_core::dynamics::{run_online, DynamicsPolicy, TimedEvent};
/// use mvcom_core::problem::InstanceBuilder;
/// use mvcom_core::se::SeConfig;
/// use mvcom_types::{CommitteeId, ShardInfo, SimTime, TwoPhaseLatency};
///
/// # fn main() -> Result<(), mvcom_types::Error> {
/// let shards = (0..10).map(|i| ShardInfo::new(
///     CommitteeId(i), 100,
///     TwoPhaseLatency::from_total(SimTime::from_secs(500.0 + 10.0 * f64::from(i))),
/// )).collect();
/// let instance = InstanceBuilder::new()
///     .alpha(1.5).capacity(800).n_min(2).shards(shards).build()?;
/// let events = vec![TimedEvent::leave(50, CommitteeId(3))];
/// let online = run_online(&instance, SeConfig::fast_test(1), &events,
///                         DynamicsPolicy::Trim)?;
/// assert_eq!(online.events.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn run_online(
    instance: &Instance,
    config: SeConfig,
    events: &[TimedEvent],
    policy: DynamicsPolicy,
) -> Result<OnlineOutcome> {
    let mut engine = SeEngine::new(instance, config)?;
    let mut ordered: Vec<&TimedEvent> = events.iter().collect();
    ordered.sort_by_key(|e| e.at_iteration);
    let mut records = Vec::with_capacity(ordered.len());
    let mut queue = ordered.into_iter().peekable();

    while engine.iteration() < config.max_iterations {
        while let Some(event) = queue.next_if(|e| e.at_iteration <= engine.iteration()) {
            let before = engine.current_best_utility();
            let is_join = match event.kind {
                EventKind::Join(shard) => {
                    engine.handle_join(shard, policy)?;
                    true
                }
                EventKind::Leave(committee) => {
                    engine.handle_leave(committee, policy)?;
                    false
                }
            };
            records.push(EventRecord {
                at_iteration: event.at_iteration,
                utility_before: before,
                utility_after: engine.current_best_utility(),
                is_join,
            });
        }
        // Stop once converged *and* no events remain to perturb the run.
        if queue.peek().is_none() && engine.is_converged() {
            break;
        }
        engine.step();
    }
    Ok(OnlineOutcome {
        outcome: engine.finish(),
        events: records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::InstanceBuilder;
    use mvcom_types::{SimTime, TwoPhaseLatency};

    fn shard(id: u32, txs: u64, latency: f64) -> ShardInfo {
        ShardInfo::new(
            CommitteeId(id),
            txs,
            TwoPhaseLatency::from_total(SimTime::from_secs(latency)),
        )
    }

    fn instance(n: usize) -> Instance {
        InstanceBuilder::new()
            .alpha(1.5)
            .capacity((n as u64) * 100)
            .n_min(n / 4)
            .shards(
                (0..n)
                    .map(|i| {
                        shard(
                            i as u32,
                            60 + (i as u64 * 7) % 80,
                            300.0 + (i as f64 * 53.0) % 700.0,
                        )
                    })
                    .collect(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn leave_then_rejoin_recovers() {
        // The Fig. 9(a) scenario: a committee fails mid-run and rejoins.
        let inst = instance(20);
        let victim = CommitteeId(5);
        let victim_shard = inst.shards()[inst.index_of(victim).unwrap()];
        let events = vec![
            TimedEvent::leave(40, victim),
            TimedEvent::join(120, victim_shard),
        ];
        for policy in [DynamicsPolicy::Trim, DynamicsPolicy::Reinitialize] {
            let online = run_online(&inst, SeConfig::fast_test(2), &events, policy).unwrap();
            assert_eq!(online.events.len(), 2);
            assert!(!online.events[0].is_join);
            assert!(online.events[1].is_join);
            // After the rejoin the epoch is back to 20 shards.
            assert_eq!(online.outcome.best_solution.len(), 20, "{policy:?}");
        }
    }

    #[test]
    fn consecutive_joins_grow_the_epoch() {
        // The Fig. 9(b)/14 scenario: committees keep joining.
        let inst = instance(10);
        let events: Vec<TimedEvent> = (0..5)
            .map(|k| {
                TimedEvent::join(
                    30 + 30 * k,
                    shard(100 + k as u32, 70, 400.0 + 40.0 * k as f64),
                )
            })
            .collect();
        let online = run_online(
            &inst,
            SeConfig::fast_test(3),
            &events,
            DynamicsPolicy::Reinitialize,
        )
        .unwrap();
        assert_eq!(online.events.len(), 5);
        assert_eq!(online.outcome.best_solution.len(), 15);
        assert!(online.events.iter().all(|e| e.is_join));
    }

    #[test]
    fn events_past_budget_are_skipped() {
        let inst = instance(10);
        let events = vec![TimedEvent::leave(1_000_000, CommitteeId(0))];
        let cfg = SeConfig {
            max_iterations: 100,
            convergence_window: 0,
            ..SeConfig::fast_test(4)
        };
        let online = run_online(&inst, cfg, &events, DynamicsPolicy::Trim).unwrap();
        assert!(online.events.is_empty());
        assert_eq!(online.outcome.best_solution.len(), 10);
    }

    #[test]
    fn leave_records_perturbation() {
        let inst = instance(20);
        let events = vec![TimedEvent::leave(60, CommitteeId(2))];
        let online =
            run_online(&inst, SeConfig::fast_test(5), &events, DynamicsPolicy::Trim).unwrap();
        let rec = &online.events[0];
        assert!(rec.utility_before.is_finite());
        assert!(rec.utility_after.is_finite());
        // Theorem 2: the perturbation is bounded by the best utility of the
        // trimmed space — loosely checkable as "after" not being absurd.
        assert!(rec.utility_after <= rec.utility_before.max(rec.utility_after));
    }

    #[test]
    fn invalid_events_propagate_errors() {
        let inst = instance(10);
        let events = vec![TimedEvent::leave(10, CommitteeId(777))];
        assert!(run_online(&inst, SeConfig::fast_test(6), &events, DynamicsPolicy::Trim).is_err());
    }

    #[test]
    fn events_apply_in_iteration_order() {
        let inst = instance(16);
        // Scripted out of order on purpose.
        let events = vec![
            TimedEvent::join(90, shard(200, 50, 500.0)),
            TimedEvent::leave(30, CommitteeId(1)),
        ];
        let online = run_online(
            &inst,
            SeConfig::fast_test(7),
            &events,
            DynamicsPolicy::Reinitialize,
        )
        .unwrap();
        assert_eq!(online.events[0].at_iteration, 30);
        assert_eq!(online.events[1].at_iteration, 90);
    }
}
