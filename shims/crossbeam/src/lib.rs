//! Offline shim for the sliver of `crossbeam` this workspace uses:
//! [`scope`] with `scope.spawn(|_| ...)`.
//!
//! Implemented over `std::thread::scope` (stable since 1.63), with the
//! crossbeam calling convention preserved: the spawn closure receives a
//! (here unit) scope argument, and `scope` returns `Err` with the panic
//! payload if any spawned thread panicked instead of propagating the
//! panic.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "vendored API surface"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Handle passed to the closure given to [`scope`]; spawns threads that
/// must finish before `scope` returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a scoped thread. The closure's argument exists for
    /// signature compatibility with crossbeam (`|_| ...`) and carries no
    /// data.
    pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        F: FnOnce(()) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        self.inner.spawn(move || f(()))
    }
}

/// Runs `f` with a [`Scope`] whose spawned threads are all joined before
/// this function returns. Returns `Err` with the first panic payload if
/// any scoped thread (or `f` itself) panicked.
pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn std::any::Any + Send + 'static>>
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    catch_unwind(AssertUnwindSafe(move || {
        std::thread::scope(|s| f(&Scope { inner: s }))
    }))
}

pub mod thread {
    //! Mirror of `crossbeam::thread` for code that spells the path out.
    pub use super::{scope, Scope};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn scoped_threads_join_and_share_borrows() {
        let counter = AtomicU32::new(0);
        let result = scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| counter.fetch_add(1, Ordering::SeqCst));
            }
            42
        })
        .unwrap();
        assert_eq!(result, 42);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panics_surface_as_err() {
        let result = scope(|s| {
            s.spawn(|_| panic!("boom"));
        });
        assert!(result.is_err());
    }
}
