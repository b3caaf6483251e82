//! Poison-tolerant lock helpers.
//!
//! A `std` mutex is *poisoned* when a thread panics while holding it, and
//! every later `lock()` returns `Err` forever after. Before the fault-
//! tolerance work, each such site `expect`ed — so one panicking worker
//! cascaded into a panic in every sibling that touched the same stager
//! or writer set, and the whole process aborted instead of reporting one
//! clean error.
//!
//! Every shared structure in this codebase mutates its guarded state at
//! *item* granularity (push one record, bump one counter, flush one page):
//! a panic mid-critical-section can lose at most the in-flight item, never
//! leave the structure structurally broken. Recovering the guard with
//! [`PoisonError::into_inner`](std::sync::PoisonError::into_inner) is
//! therefore safe, and the panic itself is surfaced separately as
//! `StorageError::WorkerPanicked` by the `nocap-par` runtime. These helpers centralize that recovery so no call site needs to
//! re-justify it.

use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a mutex, recovering the guard if a panicking thread poisoned it.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Acquires a shared read lock, recovering the guard if poisoned.
pub fn read_unpoisoned<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Acquires an exclusive write lock, recovering the guard if poisoned.
pub fn write_unpoisoned<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// Consumes a mutex and returns its data, recovering from poison.
pub fn into_inner_unpoisoned<T>(mutex: Mutex<T>) -> T {
    mutex.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[test]
    fn recovers_a_poisoned_mutex() {
        let m = Mutex::new(7usize);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*lock_unpoisoned(&m), 7);
        *lock_unpoisoned(&m) = 8;
        assert_eq!(into_inner_unpoisoned(m), 8);
    }

    #[test]
    fn recovers_a_poisoned_rwlock() {
        let l = RwLock::new(3usize);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = l.write().unwrap();
            panic!("poison it");
        }));
        assert_eq!(*read_unpoisoned(&l), 3);
        *write_unpoisoned(&l) = 4;
        assert_eq!(*read_unpoisoned(&l), 4);
    }
}
