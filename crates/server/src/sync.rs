//! Poison-recovering lock primitives for the serving path.
//!
//! Every mutex on the serving path protects a value whose mutations are
//! whole-value writes (an `Option` slot, a `VecDeque` of owned requests),
//! so a panic while holding the guard cannot leave torn state behind. A
//! poisoned lock is therefore recovered — counted, never propagated: one
//! crashed thread must not wedge every future request.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

fn count_recovery() {
    td_obs::metrics().server_lock_recoveries_total.inc();
}

/// Locks `m`, recovering (and counting) a poisoned guard.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => {
            count_recovery();
            p.into_inner()
        }
    }
}

/// `Condvar::wait`, recovering (and counting) a poisoned reacquire.
pub(crate) fn wait_recover<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(guard) {
        Ok(g) => g,
        Err(p) => {
            count_recovery();
            p.into_inner()
        }
    }
}

/// `Condvar::wait_timeout`, recovering (and counting) a poisoned reacquire.
/// The timeout flag is dropped — callers re-check their predicate and the
/// clock, which is required for spurious wakeups anyway.
pub(crate) fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, _)) => g,
        Err(p) => {
            count_recovery();
            p.into_inner().0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn poisoned_mutex_recovers_with_intact_value() {
        let m = Mutex::new(41);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock().unwrap();
            *g = 42;
            panic!("poison while holding the guard");
        }));
        assert!(r.is_err());
        assert!(m.is_poisoned());
        // The whole-value write completed before the panic: recovery sees it.
        assert_eq!(*lock_recover(&m), 42);
        // And the lock keeps working afterwards.
        *lock_recover(&m) += 1;
        assert_eq!(*lock_recover(&m), 43);
    }
}
