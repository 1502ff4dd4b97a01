//! Lock acquisition under one poison rule, for every lock in the
//! workspace's library crates.
//!
//! A std lock is *poisoned* when a thread panics while holding it. The
//! lock cannot tell whether the data it guards was left half-updated;
//! only the code around the data can. So the rule is about the data:
//!
//! * **Recover** the guard when the guarded state is consistent at every
//!   point a holder can unwind from — each critical section either
//!   replaces whole values, or finishes every fallible step before its
//!   first mutation. Then a poisoned guard still protects good data, and
//!   recovering it keeps one panicking thread from cascading a panic
//!   into every other thread that touches the lock. [`lock`], [`read`],
//!   [`write()`], [`wait`] and [`wait_timeout`] do this; each lock they
//!   serve says at its declaration (or its accessor) why the rule holds.
//! * **Fail typed** when a holder can unwind with the state mid-change.
//!   Take the lock directly and map the poisoned case to the caller's
//!   own error — never `expect`, which turns one panic into many. The
//!   cluster coordinator's worker transports are the one such lock: a
//!   panic mid-exchange can leave a reply unread, so a poisoned
//!   transport fails its shard.

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Locks `mutex`, recovering the guard if it is poisoned.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `lock`, recovering the guard if it is poisoned.
pub fn read<T: ?Sized>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering the guard if it is poisoned.
pub fn write<T: ?Sized>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering the reacquired guard if it is poisoned.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` for at most `timeout`, recovering the reacquired guard
/// if it is poisoned. Callers re-check their condition either way, so
/// whether the wait timed out is not reported.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_helper_recovers_a_poisoned_lock() {
        let mutex = Mutex::new(1u32);
        let rw = RwLock::new(2u32);
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _m = mutex.lock().unwrap();
                let _w = rw.write().unwrap();
                panic!("poison both locks");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(mutex.is_poisoned() && rw.is_poisoned());
        *lock(&mutex) += 1;
        *write(&rw) += 1;
        assert_eq!((*lock(&mutex), *read(&rw)), (2, 3));
        let cv = Condvar::new();
        let guard = wait_timeout(&cv, lock(&mutex), Duration::from_millis(1));
        assert_eq!(*guard, 2);
    }
}
