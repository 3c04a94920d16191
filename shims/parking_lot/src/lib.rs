//! Offline shim for the subset of `parking_lot` this workspace uses: a
//! [`Mutex`] (and, for completeness, an [`RwLock`]) with parking_lot's
//! non-poisoning API over the std primitives.
//!
//! Poisoning is deliberately swallowed: parking_lot locks do not poison,
//! and the workspace's solver threads rely on `lock()` never returning a
//! `Result`.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "vendored API surface"
)]

use std::fmt;

pub use std::sync::MutexGuard;
pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion primitive with parking_lot's panic-free API.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, ignoring poisoning from panicked holders.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(inner) => inner,
            Err(_) => panic!("parking_lot shim: mutex storage unreachable"),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("Mutex").field(&&*guard).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Reader–writer lock with parking_lot's panic-free API.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> RwLock<T> {
        RwLock(std::sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(guard) => f.debug_tuple("RwLock").field(&&*guard).finish(),
            Err(_) => f.write_str("RwLock(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_round_trips() {
        let m = Mutex::new(5u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 6);
        assert_eq!(m.into_inner(), 6);
    }

    #[test]
    fn poisoned_lock_still_opens() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock();
            panic!("poison");
        })
        .join();
        // parking_lot semantics: a panicking holder does not poison.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
