//! `lint::model` — a reusable interleaving-model DSL.
//!
//! One exhaustive-exploration engine so every parallel protocol in the
//! workspace gets the same treatment. A [`Model`] is:
//!
//! * a **state** type `S` (anything `Clone + Ord`; `Ord` feeds the memo
//!   table — no hand-packed keys needed),
//! * `threads` identical programs of `program_len` **atomic steps**,
//! * a [`StepFn`] enumerating every outcome of executing step `pc` on
//!   thread `tid` — each outcome carries its successor state *and* next
//!   program counter, so a step can branch (execute/skip) or jump
//!   (claim-loop exit), and can fail a **per-step invariant**,
//! * a **transition invariant** checked across every single transition,
//! * a **terminal invariant** checked once all threads have finished.
//!
//! [`explore`] runs loom-style depth-first enumeration of every thread
//! interleaving. Distinct `(program counters, state)` pairs are memoized
//! — the invariants are per-transition or state-local, so a visited
//! state's subtree never needs re-exploration — which closes the bounded
//! spaces here in milliseconds. A violation comes back with the exact
//! schedule (thread id per step) that reaches it.
//!
//! One model ships on this engine: the `ordered_map` claim/write protocol
//! every threaded path runs ([`merge`]). It pairs the shipped protocol
//! with a deliberately broken twin (the bug the design avoids) so the
//! checker demonstrably has teeth.

pub mod merge;

use std::collections::BTreeSet;
use std::fmt;

/// A per-step/transition/terminal invariant failure: name plus detail.
pub type InvariantError = (&'static str, String);

/// Possible outcomes of one atomic step: `(next state, next pc)` per
/// nondeterministic branch, or a per-step invariant violation.
pub type StepResult<S> = Result<Vec<(S, usize)>, InvariantError>;

/// Enumerates outcomes of executing step `pc` on thread `tid` in a state.
pub type StepFn<S> = Box<dyn Fn(&S, usize, usize) -> StepResult<S>>;

/// Invariant over a single transition (`before`, `after`).
pub type TransitionFn<S> = Box<dyn Fn(&S, &S) -> Result<(), InvariantError>>;

/// Invariant over a terminal state (all threads finished).
pub type TerminalFn<S> = Box<dyn Fn(&S) -> Result<(), InvariantError>>;

/// An interleaving model: `threads` copies of the same `program_len`-step
/// program over shared state `S`, under an adversarial scheduler.
pub struct Model<S> {
    /// Display name, carried into the [`Exploration`].
    pub name: &'static str,
    pub threads: usize,
    /// Steps per thread program; a thread with `pc >= program_len` is done.
    pub program_len: usize,
    pub initial: S,
    pub step: StepFn<S>,
    pub transition: TransitionFn<S>,
    pub terminal: TerminalFn<S>,
}

/// A violation found by the DFS: which invariant broke and the schedule
/// (thread id per step) that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub invariant: &'static str,
    pub detail: String,
    /// Thread index executing each step, in order.
    pub schedule: Vec<usize>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (schedule: {:?})",
            self.invariant, self.detail, self.schedule
        )
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    pub name: &'static str,
    pub threads: usize,
    /// Distinct `(pcs, state)` pairs visited (memoized DFS).
    pub states_explored: u64,
    /// `None` when every schedule upholds every invariant.
    pub violation: Option<Violation>,
}

impl Exploration {
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// Exhaustively explores every interleaving of `model`.
pub fn explore<S: Clone + Ord>(model: &Model<S>) -> Exploration {
    let mut explorer = Explorer {
        model,
        seen: BTreeSet::new(),
        states: 0,
        schedule: Vec::new(),
    };
    let pcs = vec![0u16; model.threads];
    let violation = explorer.dfs(model.initial.clone(), pcs).err();
    Exploration {
        name: model.name,
        threads: model.threads,
        states_explored: explorer.states,
        violation,
    }
}

struct Explorer<'m, S> {
    model: &'m Model<S>,
    seen: BTreeSet<(Vec<u16>, S)>,
    states: u64,
    schedule: Vec<usize>,
}

impl<S: Clone + Ord> Explorer<'_, S> {
    fn violation(&self, (invariant, detail): InvariantError) -> Violation {
        Violation {
            invariant,
            detail,
            schedule: self.schedule.clone(),
        }
    }

    fn dfs(&mut self, state: S, pcs: Vec<u16>) -> Result<(), Violation> {
        if !self.seen.insert((pcs.clone(), state.clone())) {
            return Ok(());
        }
        self.states += 1;

        let mut terminal = true;
        for tid in 0..self.model.threads {
            let pc = usize::from(pcs[tid]);
            if pc >= self.model.program_len {
                continue;
            }
            terminal = false;
            self.schedule.push(tid);
            let outcomes = (self.model.step)(&state, tid, pc).map_err(|e| self.violation(e))?;
            for (next, next_pc) in outcomes {
                (self.model.transition)(&state, &next).map_err(|e| self.violation(e))?;
                let mut next_pcs = pcs.clone();
                next_pcs[tid] = u16::try_from(next_pc).unwrap_or(u16::MAX);
                self.dfs(next, next_pcs)?;
            }
            self.schedule.pop();
        }

        if terminal {
            (self.model.terminal)(&state).map_err(|e| self.violation(e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-thread counter incremented via non-atomic read-modify-write:
    /// the textbook lost update, as a four-line model.
    fn racy_counter() -> Model<(u8, [u8; 2])> {
        Model {
            name: "racy-counter",
            threads: 2,
            program_len: 2,
            initial: (0, [0, 0]),
            step: Box::new(|s: &(u8, [u8; 2]), tid, pc| {
                let mut n = *s;
                match pc {
                    0 => n.1[tid] = n.0,     // load
                    _ => n.0 = n.1[tid] + 1, // store load+1
                }
                Ok(vec![(n, pc + 1)])
            }),
            transition: Box::new(|_, _| Ok(())),
            terminal: Box::new(|s: &(u8, [u8; 2])| {
                (s.0 == 2).then_some(()).ok_or((
                    "no-lost-update",
                    format!("both threads incremented but counter is {}", s.0),
                ))
            }),
        }
    }

    #[test]
    fn finds_the_lost_update_with_schedule() {
        let result = explore(&racy_counter());
        let violation = result.violation.expect("lost update must be found");
        assert_eq!(violation.invariant, "no-lost-update");
        // Both loads before either store: the schedule starts with the
        // two loads interleaved.
        assert!(violation.schedule.len() >= 3, "{violation}");
    }

    #[test]
    fn per_step_invariant_aborts_with_schedule() {
        let model: Model<u8> = Model {
            name: "step-fail",
            threads: 1,
            program_len: 1,
            initial: 0,
            step: Box::new(|_, _, _| Err(("boom", "step failed".to_string()))),
            transition: Box::new(|_, _| Ok(())),
            terminal: Box::new(|_| Ok(())),
        };
        let result = explore(&model);
        assert_eq!(result.violation.expect("fails").invariant, "boom");
    }

    #[test]
    fn jumps_skip_program_suffixes() {
        // One thread jumps straight to the end; terminal still runs.
        let model: Model<u8> = Model {
            name: "jump",
            threads: 1,
            program_len: 10,
            initial: 0,
            step: Box::new(|s, _, _| Ok(vec![(*s + 1, 10)])),
            transition: Box::new(|_, _| Ok(())),
            terminal: Box::new(|s| {
                (*s == 1)
                    .then_some(())
                    .ok_or(("ran-once", format!("state {s}")))
            }),
        };
        let result = explore(&model);
        assert!(result.holds(), "{:?}", result.violation);
        assert_eq!(result.states_explored, 2); // initial + terminal
    }

    #[test]
    fn memoization_collapses_commuting_schedules() {
        // Two threads each setting their own cell: 2 interleavings, but
        // the diamond shares its terminal state.
        let model: Model<[u8; 2]> = Model {
            name: "diamond",
            threads: 2,
            program_len: 1,
            initial: [0, 0],
            step: Box::new(|s, tid, pc| {
                let mut n = *s;
                n[tid] = 1;
                Ok(vec![(n, pc + 1)])
            }),
            transition: Box::new(|_, _| Ok(())),
            terminal: Box::new(|_| Ok(())),
        };
        let result = explore(&model);
        assert!(result.holds());
        // States: initial, {10}, {01}, {11} = 4 (not 5: the join is shared).
        assert_eq!(result.states_explored, 4);
    }
}
