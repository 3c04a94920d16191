//! Interleaving model of the `Obs` capture/replay protocol.
//!
//! The committee-parallel stage forks one `ObsSeed` per task beside the
//! task's RNG; the worker opens it into its own handle (`ObsSeed::open`),
//! and events emitted while the task runs land in that handle's private
//! capture without sequence numbers. The captures travel back inside the
//! task results; after the join, the coordinator replays them **in task
//! order**, assigning sequence numbers at replay time. The determinism
//! claim: **the replayed event sequence is independent of completion
//! order, with no loss and no duplication** — the event stream is
//! byte-identical to a serial run at any `--threads N`.
//!
//! [`ObsModel::DeferredReplay`] is the shipped protocol; the terminal
//! invariant compares the replayed stream against the canonical serial
//! stream. [`ObsModel::DirectEmit`] — workers emit straight into the
//! shared sequenced log, so the stream order follows the scheduler — can
//! no longer be written in the product: an `Obs` is neither `Send` nor
//! `Sync` (`compile_fail` doctests in `mvcom-obs`). It stays as the
//! prover's teeth: the DFS must keep producing a concrete schedule where
//! the streams diverge.

use super::{Exploration, Model};

/// Which emission path to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsModel {
    /// The shipped protocol: per-task capture buffers, replayed in task
    /// order after the join.
    DeferredReplay,
    /// The broken twin: workers emit directly into the shared log in
    /// completion order.
    DirectEmit,
}

/// Bounds of the exploration.
#[derive(Debug, Clone, Copy)]
pub struct ObsConfig {
    /// Modeled workers.
    pub workers: usize,
    /// Tasks claimed off the shared counter.
    pub tasks: usize,
    /// Events each task emits.
    pub events: usize,
    pub model: ObsModel,
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig {
            workers: 2,
            tasks: 3,
            events: 2,
            model: ObsModel::DeferredReplay,
        }
    }
}

/// Shared state: the claim counter, each worker's in-flight task, the
/// per-task capture buffers, and the shared log (for the broken twin).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ObsState {
    next: u8,
    claimed: Vec<Option<u8>>,
    buffers: Vec<Vec<u8>>,
    log: Vec<u8>,
}

/// Exhaustively explores the deferred-emission protocol.
///
/// # Panics
///
/// When a bound is 0 or the label encoding overflows a `u8`
/// (`tasks * events` > 250).
pub fn explore(config: &ObsConfig) -> Exploration {
    assert!(
        (1..=8).contains(&config.workers)
            && config.tasks >= 1
            && config.events >= 1
            && config.tasks * config.events <= 250,
        "obs model bounds: 1..=8 workers, tasks*events <= 250"
    );
    let tasks = config.tasks as u8;
    let events = config.events as u8;
    let model = config.model;
    // Per-worker program: Claim, then `events` Emit steps, repeated.
    let stride = 1 + config.events;
    let program_len = config.tasks * stride;
    let dsl: Model<ObsState> = Model {
        name: match model {
            ObsModel::DeferredReplay => "obs-deferred",
            ObsModel::DirectEmit => "obs-deferred(direct-emit twin)",
        },
        threads: config.workers,
        program_len,
        initial: ObsState {
            next: 0,
            claimed: vec![None; config.workers],
            buffers: vec![Vec::new(); config.tasks],
            log: Vec::new(),
        },
        step: Box::new(move |s: &ObsState, tid, pc| {
            let mut n = s.clone();
            if pc % stride == 0 {
                // Claim the next task off the shared counter.
                let index = n.next;
                if index >= tasks {
                    return Ok(vec![(n, program_len)]);
                }
                n.next = index + 1;
                n.claimed[tid] = Some(index);
                return Ok(vec![(n, pc + 1)]);
            }
            // Emit event `e` of the claimed task. The label `task*events + e`
            // is what a sequenced sink would record for it in a serial run.
            let e = (pc % stride - 1) as u8;
            let Some(task) = n.claimed[tid] else {
                return Err((
                    "claim-before-emit",
                    format!("worker {tid} emitted without a claimed task"),
                ));
            };
            let label = task * events + e;
            match model {
                ObsModel::DeferredReplay => {
                    let buffer = &mut n.buffers[usize::from(task)];
                    if buffer.len() >= usize::from(events) {
                        return Err((
                            "no-duplication",
                            format!("task {task} buffered more than {events} events"),
                        ));
                    }
                    buffer.push(label);
                }
                ObsModel::DirectEmit => n.log.push(label),
            }
            if e + 1 == events {
                n.claimed[tid] = None; // task finished
            }
            Ok(vec![(n, pc + 1)])
        }),
        transition: Box::new(|before: &ObsState, after: &ObsState| {
            if after.next < before.next {
                return Err((
                    "monotone-claim",
                    format!("claim counter regressed {} -> {}", before.next, after.next),
                ));
            }
            Ok(())
        }),
        terminal: Box::new(move |s: &ObsState| {
            // The canonical serial stream: every task's events, in task
            // order, in emission order.
            let canonical: Vec<u8> = (0..tasks)
                .flat_map(|t| (0..events).map(move |e| t * events + e))
                .collect();
            let replayed: Vec<u8> = match model {
                ObsModel::DeferredReplay => s.buffers.iter().flatten().copied().collect(),
                ObsModel::DirectEmit => s.log.clone(),
            };
            if replayed.len() != canonical.len() {
                return Err((
                    "no-loss",
                    format!(
                        "replay carries {} events, serial stream has {}",
                        replayed.len(),
                        canonical.len()
                    ),
                ));
            }
            if replayed != canonical {
                return Err((
                    "replay-order",
                    format!(
                        "replayed stream {replayed:?} depends on completion order; \
                         serial stream is {canonical:?}"
                    ),
                ));
            }
            Ok(())
        }),
    };
    super::explore(&dsl)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deferred_replay_holds_at_default_bounds() {
        let result = explore(&ObsConfig::default());
        assert!(result.holds(), "{:?}", result.violation);
        // Pinned: a refactor that prunes branches must fail here, not
        // shrink a number in a log (DESIGN.md §12 quotes the count).
        assert_eq!(result.states_explored, 111);
    }

    #[test]
    fn deferred_replay_holds_at_three_workers() {
        let result = explore(&ObsConfig {
            workers: 3,
            ..ObsConfig::default()
        });
        assert!(result.holds(), "{:?}", result.violation);
    }

    #[test]
    fn direct_emit_twin_is_caught_with_a_schedule() {
        let result = explore(&ObsConfig {
            model: ObsModel::DirectEmit,
            ..ObsConfig::default()
        });
        let violation = result.violation.expect("direct emission must reorder");
        assert_eq!(violation.invariant, "replay-order");
        assert!(!violation.schedule.is_empty());
    }

    #[test]
    fn single_worker_is_safe_in_both_models() {
        for model in [ObsModel::DeferredReplay, ObsModel::DirectEmit] {
            let result = explore(&ObsConfig {
                workers: 1,
                model,
                ..ObsConfig::default()
            });
            assert!(result.holds(), "{model:?}: {:?}", result.violation);
        }
    }
}
