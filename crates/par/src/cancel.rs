//! First-error cancellation for the worker fan-out.
//!
//! When one worker fails, its siblings are doing doomed work: their results
//! will be discarded and any spill files they produce deleted. A
//! [`CancelToken`] lets the failing worker record the **root cause** (first
//! error wins, in wall-clock order) and lets every sibling observe the
//! cancellation with one relaxed atomic load, bailing out at its next task
//! boundary with [`StorageError::Cancelled`]. The fan-out,
//! [`ordered_tasks`](crate::pool::ordered_tasks), then reports the
//! recorded root cause to the caller instead of whichever sibling happened
//! to notice first.
//!
//! Cancellation is **cooperative and boundary-aligned**: workers poll at
//! task-claim points (between page morsels, partition pairs, sort chunks),
//! never mid-page, so a cancelled run tears down through the same `?`-driven
//! cleanup paths a plain error would take — dropped relations delete their
//! files, locks unlock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use nocap_storage::{lock_unpoisoned, Result, StorageError};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    reason: Mutex<Option<StorageError>>,
}

/// Shared cancellation flag carrying the first error that tripped it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub(crate) fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token, recording `reason` as the root cause if this is the
    /// first cancellation. [`StorageError::Cancelled`] itself is never
    /// recorded — it marks a victim, not a cause.
    pub(crate) fn cancel(&self, reason: &StorageError) {
        if matches!(reason, StorageError::Cancelled) {
            self.inner.cancelled.store(true, Ordering::Release);
            return;
        }
        let mut slot = lock_unpoisoned(&self.inner.reason);
        if slot.is_none() {
            *slot = Some(reason.clone());
        }
        drop(slot);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token has been tripped.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Returns `Err(StorageError::Cancelled)` if the token has been tripped
    /// — the one-liner workers call at task boundaries.
    pub(crate) fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(StorageError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// The root cause recorded by the first cancellation, if any.
    pub(crate) fn reason(&self) -> Option<StorageError> {
        lock_unpoisoned(&self.inner.reason).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_clear() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.reason().is_none());
    }

    #[test]
    fn first_reason_wins() {
        let t = CancelToken::new();
        t.cancel(&StorageError::Io("first".into()));
        t.cancel(&StorageError::Io("second".into()));
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(StorageError::Io("first".into())));
        assert_eq!(t.check(), Err(StorageError::Cancelled));
    }

    #[test]
    fn cancelled_marker_is_not_a_root_cause() {
        let t = CancelToken::new();
        t.cancel(&StorageError::Cancelled);
        assert!(t.is_cancelled());
        assert!(t.reason().is_none());
        // A real error arriving later still registers as the cause.
        t.cancel(&StorageError::Io("late".into()));
        assert_eq!(t.reason(), Some(StorageError::Io("late".into())));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel(&StorageError::Io("x".into()));
        assert!(t.is_cancelled());
    }
}
