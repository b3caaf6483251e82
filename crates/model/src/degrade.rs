//! Graceful degradation under memory pressure: the budget ladder.
//!
//! NOCAP plans for a fixed budget of `B` pages, but a deployed operator can
//! meet an admission-control pool that cannot grant `B` — or discover
//! mid-plan that `B` was optimistic (a
//! [`StorageError::OutOfMemory`]
//! from a buffer-pool reservation). The cost model is monotone in `B`:
//! shrinking the budget never makes a plan infeasible, it only buys more
//! passes (§4 — smaller `B` means more partitions and more spill I/O). So
//! instead of failing outright, [`run_degrading`] walks a bounded **budget
//! ladder**: try `B`, and on out-of-memory retry with `¾·B`, then `¾²·B`,
//! … down to a floor, holding an admission reservation for the attempted
//! budget for the lifetime of each attempt.
//!
//! Every step is recorded in the returned [`DegradedRun::attempts`], so a
//! degraded run is never mistaken for a first-try success. Any error other
//! than `OutOfMemory` aborts the ladder immediately: degradation is a
//! response to memory pressure, not a generic retry loop.
//!
//! The ladder runs over any operator: [`run_degrading`]'s closure rebuilds
//! the join at the budget it is handed
//! (`NocapJoin::new(spec.with_buffer_pages(b), config)` re-plans; DHH,
//! Histojoin, GHJ and SMJ re-size), so every join in the workspace degrades
//! the same way, and the floor is the largest of their structural
//! minimums.

use nocap_storage::{BufferPool, Result, StorageError};

use crate::report::JoinRunReport;

/// The bounded budget-degradation policy: how far and how fast a join's
/// page budget may shrink under memory pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetLadder {
    /// Maximum number of degradation steps (budget shrinks) before the
    /// ladder gives up and surfaces the out-of-memory error.
    pub max_steps: usize,
    /// Numerator of the per-step shrink factor.
    pub shrink_numerator: usize,
    /// Denominator of the per-step shrink factor (¾ by default: gentle
    /// enough to stay near the planned budget, fast enough to reach the
    /// floor in a handful of steps).
    pub shrink_denominator: usize,
    /// Smallest budget the ladder will attempt, in pages. The default (5)
    /// is the largest of the executors' structural minimums, so every
    /// operator in the suite still runs at the floor.
    pub floor_pages: usize,
}

impl Default for BudgetLadder {
    fn default() -> Self {
        BudgetLadder {
            max_steps: 4,
            shrink_numerator: 3,
            shrink_denominator: 4,
            floor_pages: 5,
        }
    }
}

impl BudgetLadder {
    /// The budget one rung below `budget`, or `None` if `budget` is already
    /// at (or below) the floor.
    pub fn next_budget(&self, budget: usize) -> Option<usize> {
        if budget <= self.floor_pages {
            return None;
        }
        let shrunk = budget * self.shrink_numerator / self.shrink_denominator.max(1);
        // Guarantee progress even when the shrink factor rounds to a no-op.
        Some(shrunk.min(budget - 1).max(self.floor_pages))
    }
}

/// One failed rung of the ladder: the budget that was attempted and the
/// out-of-memory error that rejected it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationAttempt {
    /// The page budget this attempt ran (or tried to reserve) with.
    pub budget_pages: usize,
    /// The `OutOfMemory` error that failed the attempt.
    pub error: StorageError,
}

/// A join run that may have degraded its budget before succeeding.
#[derive(Debug, Clone)]
pub struct DegradedRun {
    /// The successful run's report.
    pub report: JoinRunReport,
    /// The budget the successful attempt actually ran with.
    pub budget_pages: usize,
    /// The failed attempts that preceded it, in ladder order (empty for a
    /// first-try success).
    pub attempts: Vec<DegradationAttempt>,
}

impl DegradedRun {
    /// Number of degradation steps taken before the run succeeded.
    pub fn steps(&self) -> usize {
        self.attempts.len()
    }
}

/// Runs `run` down the budget ladder until it succeeds or the ladder is
/// exhausted.
///
/// Each attempt first reserves the attempted budget from `admission` — the
/// admission-control pool standing in for the memory the operator is
/// granted — and holds that reservation for the attempt's lifetime, so
/// concurrent operators sharing the pool see the attempted footprint. A
/// failed reservation or an [`OutOfMemory`](StorageError::OutOfMemory)
/// returned by `run` records a [`DegradationAttempt`] and retries one rung
/// down; any other error aborts immediately. When the ladder is exhausted
/// (or the floor rejected), the last out-of-memory error is returned and
/// the admission pool holds nothing.
///
/// On success the degradation trail is returned in the [`DegradedRun`].
pub fn run_degrading(
    admission: &BufferPool,
    initial_budget: usize,
    ladder: &BudgetLadder,
    mut run: impl FnMut(usize) -> Result<JoinRunReport>,
) -> Result<DegradedRun> {
    let mut budget = initial_budget.max(ladder.floor_pages);
    let mut attempts: Vec<DegradationAttempt> = Vec::new();
    loop {
        let oom = match admission.reserve(budget) {
            Ok(_reservation) => match run(budget) {
                Ok(report) => {
                    return Ok(DegradedRun {
                        report,
                        budget_pages: budget,
                        attempts,
                    })
                }
                Err(err @ StorageError::OutOfMemory { .. }) => err,
                Err(other) => return Err(other),
            },
            Err(err @ StorageError::OutOfMemory { .. }) => err,
            Err(other) => return Err(other),
        };
        attempts.push(DegradationAttempt {
            budget_pages: budget,
            error: oom.clone(),
        });
        if attempts.len() > ladder.max_steps {
            return Err(oom);
        }
        budget = match ladder.next_budget(budget) {
            Some(next) => next,
            None => return Err(oom),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_report() -> JoinRunReport {
        JoinRunReport::new("test")
    }

    fn oom(requested: usize, available: usize) -> StorageError {
        StorageError::OutOfMemory {
            requested,
            available,
        }
    }

    #[test]
    fn first_try_success_takes_no_steps() {
        let admission = BufferPool::new(64);
        let run = run_degrading(&admission, 32, &BudgetLadder::default(), |b| {
            assert_eq!(b, 32);
            Ok(dummy_report())
        })
        .unwrap();
        assert_eq!(run.budget_pages, 32);
        assert!(run.attempts.is_empty());
        assert_eq!(admission.in_use(), 0, "reservation released after the run");
    }

    #[test]
    fn admission_pressure_degrades_until_the_reservation_fits() {
        // The pool can only grant 20 pages; a 48-page plan must walk down
        // 48 → 36 → 27 → 20 before the reservation succeeds.
        let admission = BufferPool::new(20);
        let mut budgets = Vec::new();
        let run = run_degrading(&admission, 48, &BudgetLadder::default(), |b| {
            budgets.push(b);
            Ok(dummy_report())
        })
        .unwrap();
        assert_eq!(budgets, vec![20]);
        assert_eq!(run.budget_pages, 20);
        assert_eq!(run.steps(), 3, "48, 36 and 27 were rejected by admission");
        assert!(run
            .attempts
            .iter()
            .all(|a| matches!(a.error, StorageError::OutOfMemory { .. })));
        assert_eq!(admission.in_use(), 0);
    }

    #[test]
    fn runtime_oom_degrades_and_records_each_attempt() {
        let admission = BufferPool::new(256);
        let mut calls = 0usize;
        let run = run_degrading(&admission, 64, &BudgetLadder::default(), |b| {
            calls += 1;
            if calls < 3 {
                Err(oom(b, 0))
            } else {
                Ok(dummy_report())
            }
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(run.steps(), 2);
        assert_eq!(run.attempts[0].budget_pages, 64);
        assert_eq!(run.attempts[1].budget_pages, 48);
        assert_eq!(run.budget_pages, 36);
        assert_eq!(admission.in_use(), 0);
    }

    #[test]
    fn ladder_exhaustion_surfaces_the_last_oom_cleanly() {
        let admission = BufferPool::new(256);
        let ladder = BudgetLadder::default();
        let err = run_degrading(&admission, 64, &ladder, |b| Err(oom(b, 0)))
            .expect_err("every rung fails");
        assert!(matches!(err, StorageError::OutOfMemory { .. }));
        assert_eq!(admission.in_use(), 0, "no reservation leaks on failure");
    }

    #[test]
    fn floor_rejection_fails_without_spinning() {
        // Budget already at the floor: one attempt, then the error.
        let admission = BufferPool::new(2);
        let mut calls = 0usize;
        let err = run_degrading(&admission, 5, &BudgetLadder::default(), |_| {
            calls += 1;
            Ok(dummy_report())
        })
        .expect_err("admission can never grant the floor");
        assert!(matches!(err, StorageError::OutOfMemory { .. }));
        assert_eq!(calls, 0, "run never executes without admission");
    }

    #[test]
    fn non_oom_errors_abort_the_ladder_immediately() {
        let admission = BufferPool::new(256);
        let mut calls = 0usize;
        let err = run_degrading(&admission, 64, &BudgetLadder::default(), |_| {
            calls += 1;
            Err(StorageError::Io("disk on fire".into()))
        })
        .expect_err("I/O errors are not memory pressure");
        assert_eq!(err, StorageError::Io("disk on fire".into()));
        assert_eq!(calls, 1);
        assert_eq!(admission.in_use(), 0);
    }

    #[test]
    fn next_budget_always_progresses_and_respects_the_floor() {
        let ladder = BudgetLadder::default();
        assert_eq!(ladder.next_budget(64), Some(48));
        assert_eq!(ladder.next_budget(8), Some(6));
        assert_eq!(ladder.next_budget(6), Some(5));
        assert_eq!(ladder.next_budget(5), None);
        assert_eq!(ladder.next_budget(1), None);
        // A degenerate shrink factor still makes progress.
        let lazy = BudgetLadder {
            shrink_numerator: 1,
            shrink_denominator: 1,
            ..ladder
        };
        assert_eq!(lazy.next_budget(10), Some(9));
    }
}
