//! The workspace's one deterministic fan-out: [`ordered_map`].
//!
//! Every threaded path — the Γ solution replicas of an SE round, the
//! parameter points of a figure experiment — is the same shape: independent items whose seeds
//! were forked ([`crate::rng::fork`]) *before* the fan-out, in item
//! order, so an item's result depends on its index and never on which
//! worker ran it or when. `ordered_map` is the only thing a `--threads`
//! value reaches; its output is the serial `map` at any count.
//!
//! Protocol: a worker *claims* the next `(index, item)` off one shared
//! queue — a single locked step — runs `f` with no lock held, and keeps
//! `(index, result)` in a `Vec` of its own, which it returns through its
//! join handle. The caller concatenates the workers' pairs, sorts them by
//! index and drops the indices. The claim queue is the only shared state:
//! each index is claimed once, so each result comes back once, and
//! completion order never shows. The tests below are the whole contract:
//! five force skew, a panic and the serial path; one forces every
//! completion order of three items on three workers, and one forces a
//! worker to return non-adjacent items.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "this module is the one fan-out: its only shared state is the claim queue above, and its barrier-forced tests pin skew, panics, the serial path and every completion order"
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
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // The guard is a temporary dropped at the end of
                        // the claim statement, before `f` runs, so the lock
                        // is never held across code that can panic and is
                        // never poisoned; `into_inner` says so without a
                        // panic path.
                        let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((index, item)) = claimed else {
                            return mine;
                        };
                        mine.push((index, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Condvar};
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

    #[test]
    fn every_completion_order_returns_the_serial_map() {
        const ORDERS: [[usize; 3]; 6] = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for order in ORDERS {
            // `finished` is the turn counter: item `i` finishes only when
            // as many items have finished as its rank in `order`. Three
            // workers for three items, so whichever item's turn it is has
            // been or can be claimed by a worker that is not waiting.
            let finished = Mutex::new(Vec::new());
            let turn = Condvar::new();
            let out = ordered_map(3, vec![0usize, 1, 2], |i| {
                let rank = order.iter().position(|&item| item == i).unwrap();
                let mut done = turn
                    .wait_while(finished.lock().unwrap(), |done| done.len() < rank)
                    .unwrap();
                done.push(i);
                turn.notify_all();
                i * 10
            });
            assert_eq!(out, [0, 10, 20], "order={order:?}");
            // Equal to a permutation of the three items: each ran once, in
            // the forced order.
            assert_eq!(finished.into_inner().unwrap(), order);
        }
    }

    #[test]
    fn a_worker_holding_non_adjacent_items_still_returns_item_order() {
        // Forced claims on two workers: item 0 cannot finish before item 1
        // has started, so they run on different workers; item 1 cannot
        // finish before item 2 has, so item 2 goes to item 0's worker. That
        // worker returns items 0 and 2, the other item 1: concatenated in
        // either join order, the pairs are out of index order.
        let both_started = Barrier::new(2);
        let two_done = Barrier::new(2);
        let out = ordered_map(2, vec![0usize, 1, 2], |i| {
            if i < 2 {
                both_started.wait();
            }
            if i > 0 {
                two_done.wait();
            }
            (i, thread::current().id())
        });
        let [(0, w0), (1, w1), (2, w2)] = out[..] else {
            panic!("results out of item order: {out:?}");
        };
        assert!(w0 == w2 && w0 != w1, "the claims were not forced");
    }
}
