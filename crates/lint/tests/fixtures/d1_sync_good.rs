//! Fixture: the same work through the one fan-out; state goes to a task
//! in its item and comes back in its result.

use mvcom_simnet::ordered_map;

pub fn through_the_fan_out(threads: usize, items: Vec<u64>) -> u64 {
    // `std::thread::current` names no primitive; neither does prose about
    // a Mutex, nor a string: "AtomicU64".
    let _caller = std::thread::current().id();
    ordered_map(threads, items, |x| x * 2).into_iter().sum()
}
