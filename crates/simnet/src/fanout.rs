//! The workspace's one deterministic fan-out: [`ordered_map`].
//!
//! Every threaded path — the Γ solution replicas of an SE round, the
//! parameter points of a figure experiment — is the same shape: independent items whose seeds
//! were forked ([`crate::rng::fork`]) *before* the fan-out, in item
//! order, so an item's result depends on its index and never on which
//! worker ran it or when. `ordered_map` is the only thing a `--threads`
//! value reaches; its output is the serial `map` at any count.
//!
//! Protocol (the one `mvcom-lint`'s `merge` model explores): a worker
//! *claims* the next `(index, item)` off one shared queue — a single
//! atomic step — runs `f` with no lock held, and *writes* the result to
//! `slots[index]`; the caller reads the slots in index order after every
//! worker has joined. Each index is claimed once, so each slot is written
//! once, and completion order never shows.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this module is the one fan-out: the claim/write protocol above is what its barrier-forced tests pin and what mvcom-lint's `merge` model explores exhaustively"
)]

use std::sync::{Mutex, PoisonError};

/// Maps `f` over `items` on up to `threads` workers and returns the
/// results **in item order**, whatever order the items finished in.
///
/// With `threads <= 1`, or at most one item, this is exactly
/// `items.into_iter().map(f).collect()` on the caller's thread: no
/// thread is spawned and nothing is locked. A panic in `f` reaches the
/// caller with its original payload on both paths (threaded: after the
/// remaining workers have drained the queue and joined).
///
/// # What a task may touch
///
/// The bounds are the contract: `f` is shared by every worker (`Sync`),
/// so a task reads what it captures, owns what it is handed (`T: Send`)
/// and answers only through its result (`R: Send`). It is told neither
/// its index nor the worker count, so neither can shape a result.
///
/// ```
/// use mvcom_simnet::ordered_map;
///
/// let mut total = 0u64;
/// let doubled = ordered_map(2, vec![1u64, 2, 3], |x| {
///     x * 2
/// });
/// total += doubled.iter().sum::<u64>();
/// assert_eq!(total, 12);
/// ```
///
/// Folding into a captured variable from inside the task would make the
/// merged value depend on who finished first; it is a compile error
/// (`Fn` closures cannot mutate what they capture):
///
/// ```compile_fail
/// use mvcom_simnet::ordered_map;
///
/// let mut total = 0u64;
/// let doubled = ordered_map(2, vec![1u64, 2, 3], |x| {
///     total += x; x * 2
/// });
/// total += doubled.iter().sum::<u64>();
/// assert_eq!(total, 12);
/// ```
///
/// Single-thread shared state does not cross either: a task may build an
/// `Rc<RefCell<_>>` of its own …
///
/// ```
/// use mvcom_simnet::ordered_map;
/// use std::{cell::RefCell, rc::Rc};
///
/// let log = Rc::new(RefCell::new(Vec::<u64>::new()));
/// let seen = ordered_map(2, vec![1u64, 2, 3], |x| {
///     let log = Rc::new(RefCell::new(Vec::<u64>::new()));
///     log.borrow_mut().push(x);
///     let len = log.borrow().len();
///     len
/// });
/// assert_eq!(seen, [1, 1, 1]);
/// ```
///
/// … and may not capture the caller's (`Rc` is not `Sync`):
///
/// ```compile_fail
/// use mvcom_simnet::ordered_map;
/// use std::{cell::RefCell, rc::Rc};
///
/// let log = Rc::new(RefCell::new(Vec::<u64>::new()));
/// let seen = ordered_map(2, vec![1u64, 2, 3], |x| {
///     let log = Rc::clone(&log);
///     log.borrow_mut().push(x);
///     let len = log.borrow().len();
///     len
/// });
/// assert_eq!(seen, [1, 1, 1]);
/// ```
pub fn ordered_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let queue = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    // Neither lock is ever held across code that can
                    // panic (`f` runs between them), so neither can be
                    // poisoned; `into_inner` says so without a panic path.
                    let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((index, item)) = claimed else {
                        break;
                    };
                    let result = f(item);
                    // The queue guard is a temporary dropped at the end of the claim statement, before `f` runs; the two guards never overlap, and each slot cell is private to the index its one claimant drew.
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            #[expect(
                clippy::expect_used,
                reason = "the queue handed out every index exactly once and every worker joined without a panic, so every slot was written"
            )]
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every claimed index was written before the join")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn results_come_back_in_item_order_when_items_finish_out_of_order() {
        const ITEMS: usize = 9;
        for threads in [1, 2, 3, 8] {
            // Forced skew, not a sleep: on the threaded path item 0 cannot
            // finish until the *last* item has been computed by another
            // worker, so completion order is 1..=8 then 0.
            let last_done = Barrier::new(2);
            let out = ordered_map(threads, (0..ITEMS).collect(), |i| {
                if threads > 1 && (i == 0 || i == ITEMS - 1) {
                    last_done.wait();
                }
                i * 10
            });
            let serial: Vec<usize> = (0..ITEMS).map(|i| i * 10).collect();
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn every_item_is_consumed_exactly_once() {
        /// Deliberately neither `Clone` nor `Copy`: an item can only be
        /// consumed by moving it into `f`.
        struct Token(usize);
        for threads in [1, 2, 3, 8] {
            let seen: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            let out = ordered_map(threads, (0..50).map(Token).collect(), |Token(i)| {
                seen[i].fetch_add(1, Ordering::SeqCst);
                i
            });
            assert_eq!(out, (0..50).collect::<Vec<_>>(), "threads={threads}");
            assert!(
                seen.iter().all(|n| n.load(Ordering::SeqCst) == 1),
                "threads={threads}: an item was dropped or ran twice"
            );
        }
    }

    #[test]
    fn fewer_items_than_threads_and_empty_input() {
        assert_eq!(ordered_map(8, vec![1, 2, 3], |x| x + 1), vec![2, 3, 4]);
        assert_eq!(ordered_map(8, Vec::<u32>::new(), |x| x + 1), vec![]);
        assert_eq!(ordered_map(0, vec![5], |x| x + 1), vec![6]);
    }

    #[test]
    fn one_thread_or_one_item_runs_inline_on_the_caller() {
        let caller = thread::current().id();
        let ids = ordered_map(1, vec![(); 6], |()| thread::current().id());
        assert!(ids.iter().all(|id| *id == caller), "threads=1 spawned");
        let ids = ordered_map(8, vec![()], |()| thread::current().id());
        assert_eq!(ids, vec![caller], "a single item spawned");
        // And the threaded path really leaves the caller's thread.
        let ids = ordered_map(2, vec![(); 6], |()| thread::current().id());
        assert!(ids.iter().all(|id| *id != caller));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                ordered_map(threads, vec![0u32, 1, 2, 3], |i| {
                    if i == 1 {
                        std::panic::panic_any(Payload(7));
                    }
                    i
                })
            })
            .expect_err("the panic must not be swallowed");
            assert_eq!(
                caught.downcast_ref::<Payload>(),
                Some(&Payload(7)),
                "threads={threads}"
            );
        }
    }
}
