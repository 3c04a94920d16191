//! Interleaving model of the `ordered_map` claim/write protocol.
//!
//! `mvcom_simnet::fanout::ordered_map` is the workspace's one fan-out —
//! the SE replica race and the figure sweeps both run it, so this proof
//! covers every threaded path. Each worker claims the next `(index, item)` off a shared queue
//! (one step: the queue's lock makes reading and advancing the position
//! atomic), computes the item (seeded by its *index*, not its worker),
//! and writes the result into the slot *of that index*. The merged output
//! is read slot-by-slot in index order after the join. The determinism
//! claim: **the merged output order equals item-index order for every
//! interleaving** — no matter which worker finishes which item when.
//!
//! [`MergeModel::IndexedSlots`] is the shipped protocol. The model makes
//! the design argument mechanical: a task's payload is a function of its
//! index, a slot is written exactly once (per-step invariant), and the
//! terminal invariant reads the slots in index order and compares against
//! the canonical serial output.
//!
//! [`MergeModel::PushOrder`] is the tempting bug the slot design avoids:
//! workers push results into one shared vector as they finish. The DFS
//! finds a schedule where a later-claimed task completes first and the
//! merge order diverges from task order.

use super::{Exploration, Model};

/// Which merge implementation to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeModel {
    /// The shipped protocol: results land in `slots[task_index]`, merged
    /// by index after the join.
    IndexedSlots,
    /// The broken twin: results are pushed to a shared vec in completion
    /// order.
    PushOrder,
}

/// Bounds of the exploration.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Modeled workers (the interesting regime is 2–3).
    pub workers: usize,
    /// Tasks to partition.
    pub tasks: usize,
    pub model: MergeModel,
}

impl Default for MergeConfig {
    fn default() -> MergeConfig {
        MergeConfig {
            workers: 3,
            tasks: 3,
            model: MergeModel::IndexedSlots,
        }
    }
}

/// Shared state: the claim counter, each worker's in-flight task, the
/// per-task result slots, and (for the broken twin) the push log.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MergeState {
    next: u8,
    claimed: Vec<Option<u8>>,
    slots: Vec<Option<u8>>,
    log: Vec<u8>,
}

/// The deterministic payload of a task: a pure function of the task
/// index (each task derives its seed from its index, never its worker).
fn payload(task: u8) -> u8 {
    task
}

/// Exhaustively explores the merge protocol at the given bounds.
///
/// # Panics
///
/// When `workers` or `tasks` is 0 or large enough to overflow the `u8`
/// state encoding (> 200).
pub fn explore(config: &MergeConfig) -> Exploration {
    assert!(
        (1..=8).contains(&config.workers) && (1..=200).contains(&config.tasks),
        "merge model bounds: 1..=8 workers, 1..=200 tasks"
    );
    let tasks = config.tasks as u8;
    let model = config.model;
    let workers = config.workers;
    // Per-worker program: Claim at even pcs, Write at odd pcs. A claim
    // that finds the counter exhausted jumps to the end (the worker's
    // claim loop exits).
    let program_len = 2 * config.tasks;
    let dsl: Model<MergeState> = Model {
        name: match model {
            MergeModel::IndexedSlots => "ordered-map-merge",
            MergeModel::PushOrder => "ordered-map-merge(push-order twin)",
        },
        threads: workers,
        program_len,
        initial: MergeState {
            next: 0,
            claimed: vec![None; workers],
            slots: vec![None; config.tasks],
            log: Vec::new(),
        },
        step: Box::new(move |s: &MergeState, tid, pc| {
            let mut n = s.clone();
            if pc % 2 == 0 {
                // Claim: `queue.lock().next()` — under the lock, observing
                // and advancing the queue position is one step.
                let index = n.next;
                if index >= tasks {
                    return Ok(vec![(n, program_len)]);
                }
                n.next = index + 1;
                n.claimed[tid] = Some(index);
                return Ok(vec![(n, pc + 1)]);
            }
            // Write: deposit the finished task's payload.
            let Some(task) = n.claimed[tid].take() else {
                return Err((
                    "claim-before-write",
                    format!("worker {tid} wrote without a claimed task"),
                ));
            };
            match model {
                MergeModel::IndexedSlots => {
                    let slot = &mut n.slots[usize::from(task)];
                    if slot.is_some() {
                        return Err(("exactly-once-write", format!("slot {task} written twice")));
                    }
                    *slot = Some(payload(task));
                }
                MergeModel::PushOrder => n.log.push(payload(task)),
            }
            Ok(vec![(n, pc + 1)])
        }),
        transition: Box::new(|before: &MergeState, after: &MergeState| {
            if after.next < before.next {
                return Err((
                    "monotone-claim",
                    format!("claim counter regressed {} -> {}", before.next, after.next),
                ));
            }
            Ok(())
        }),
        terminal: Box::new(move |s: &MergeState| {
            // Invariant: the merged output order equals task-index order.
            let merged: Vec<u8> = match model {
                MergeModel::IndexedSlots => {
                    let mut out = Vec::with_capacity(usize::from(tasks));
                    for (i, slot) in s.slots.iter().enumerate() {
                        match slot {
                            Some(v) => out.push(*v),
                            None => {
                                return Err(("no-task-loss", format!("task {i} was never merged")))
                            }
                        }
                    }
                    out
                }
                MergeModel::PushOrder => s.log.clone(),
            };
            let canonical: Vec<u8> = (0..tasks).map(payload).collect();
            if merged != canonical {
                return Err((
                    "merge-order",
                    format!(
                        "merged output {merged:?} differs from task-index order \
                         {canonical:?}"
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
    fn indexed_slots_hold_at_default_bounds() {
        let result = explore(&MergeConfig::default());
        assert!(result.holds(), "{:?}", result.violation);
        // Pinned: a refactor that prunes branches must fail here, not
        // shrink a number in a log (DESIGN.md §12 quotes the count).
        assert_eq!(result.states_explored, 297);
    }

    #[test]
    fn indexed_slots_hold_at_two_workers_and_uneven_tasks() {
        for (workers, tasks) in [(2, 3), (2, 4), (3, 4)] {
            let result = explore(&MergeConfig {
                workers,
                tasks,
                model: MergeModel::IndexedSlots,
            });
            assert!(
                result.holds(),
                "{workers}w/{tasks}t: {:?}",
                result.violation
            );
        }
    }

    #[test]
    fn push_order_twin_is_caught_with_a_schedule() {
        let result = explore(&MergeConfig {
            model: MergeModel::PushOrder,
            ..MergeConfig::default()
        });
        let violation = result.violation.expect("push-order must break merge order");
        assert_eq!(violation.invariant, "merge-order");
        assert!(!violation.schedule.is_empty());
    }

    #[test]
    fn single_worker_is_safe_in_both_models() {
        for model in [MergeModel::IndexedSlots, MergeModel::PushOrder] {
            let result = explore(&MergeConfig {
                workers: 1,
                tasks: 3,
                model,
            });
            assert!(result.holds(), "{model:?}: {:?}", result.violation);
        }
    }
}
