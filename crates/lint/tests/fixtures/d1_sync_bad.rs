//! Fixture: every thread / synchronisation primitive D1 keeps out of the
//! crates a fan-out task can reach.

use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::mpsc;
use std::sync::{Barrier, Condvar, LazyLock, Mutex, Once, OnceLock, RwLock};

thread_local! {
    static CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

pub fn second_fan_out(items: Vec<u64>) -> u64 {
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        scope.spawn(|| tx.send(items.len() as u64));
    });
    let worker = std::thread::spawn(|| 1);
    let named = std::thread::Builder::new();
    rx.iter().sum()
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn tests_may_force_interleavings() {
        let _ = Mutex::new(std::thread::spawn(|| 0));
    }
}
