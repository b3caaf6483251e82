//! Scoped worker fan-out and work-queue helpers.
//!
//! The execution engine only ever needs two shapes of parallelism:
//!
//! * **worker fan-out** ([`run_workers_obs`]): `n` workers, each handed its
//!   worker id, producing one result each — used for the partitioning
//!   scans, where every worker claims page morsels
//!   ([`PageMorsels`](crate::shard::PageMorsels)) until the relation is
//!   exhausted and returns its private state for the coordinator to merge;
//! * **work queue** ([`ordered_tasks`]): a list of independent tasks
//!   claimed from an atomic cursor, results landing at their task index —
//!   used for the build/probe phase (spilled partition pairs, whose work
//!   is wildly uneven under skew, so static assignment would leave workers
//!   idle; the counts are summed) and where downstream consumers need the
//!   artifacts in canonical order (the sort chunks and merge groups of
//!   `SortMergeJoin::run_parallel`, the statistics shards folded in shard
//!   order), with per-worker reusable state so the tasks themselves stay
//!   allocation-free.
//!
//! All are built on `std::thread::scope`, so borrowed state (the shared
//! hash table, the writer sets, the device) needs no `'static` gymnastics.
//! Worker 0 always runs on the calling thread — the caller would only block
//! until the others finish — so a fan-out of `n` spawns `n − 1` threads.
//!
//! **Fail-clean contract.** Every fan-out catches worker panics and
//! converts them to [`StorageError::WorkerPanicked`] (the process never
//! aborts because one task misbehaved), and every fan-out runs under a
//! [`CancelToken`]: the first worker error trips the token, siblings
//! observe it at their next task boundary and bail with
//! [`StorageError::Cancelled`], and the caller receives the recorded root
//! cause — not whichever victim finished last. Cleanup relies on RAII
//! (relations that delete their files on drop, reservations,
//! poison-tolerant locks), so a cancelled or panicked run releases
//! everything it acquired.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nocap_obs::{Obs, Phase, WorkerObs};
use nocap_storage::{Result, StorageError};

use crate::cancel::CancelToken;

/// Default worker count: the `NOCAP_THREADS` environment variable if set to
/// a positive integer, otherwise the machine's available parallelism,
/// otherwise 1.
///
/// CI runs the release test suite at `NOCAP_THREADS` 1, 2 and 8, and the
/// fault and OOM smoke at 1 and 4, so the parallel paths are exercised
/// with real concurrency even where the runner reports a single core.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("NOCAP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count a `threads` argument stands for: `0` selects
/// [`default_threads`], anything else is taken as given. Every
/// `run_parallel`-style entry point resolves its argument here, so the
/// environment is consulted only when a caller asks for the default — a
/// sequential `run`, which passes `1`, never reads it.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Renders a panic payload into the deterministic part of
/// [`StorageError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `threads` workers, each receiving its worker id `0..threads` and
/// `token`, and collects their results in worker order. A worker is
/// expected to poll [`CancelToken::check`] at its task boundaries, so
/// sibling workers stop promptly once any worker fails.
///
/// If any worker fails, the returned error is the run's **root cause**: the
/// first error (in wall-clock order) that tripped the token; workers that
/// return [`StorageError::Cancelled`] are victims, not causes, and never
/// overwrite it. Panics are caught per worker (on the spawned threads *and*
/// in worker 0 on the calling thread) and converted to
/// [`StorageError::WorkerPanicked`] instead of aborting the process. Worker
/// 0 runs on the calling thread and only workers `1..threads` are spawned,
/// so `threads == 1` has no spawn overhead at all — which is what lets the
/// joins' sequential `run` be a fan-out at one worker.
fn run_workers_cancel<T, F>(threads: usize, token: &CancelToken, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &CancelToken) -> Result<T> + Sync,
{
    let threads = threads.max(1);
    // Unwind safety: the closure only shares poison-tolerant structures
    // (sync-helper locks, atomics, the cancel token) whose state mutates at
    // item granularity, so observing them after a sibling's panic is sound.
    let guarded = |w: usize| -> Result<T> {
        match catch_unwind(AssertUnwindSafe(|| f(w, token))) {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(err)) => {
                token.cancel(&err);
                Err(err)
            }
            Err(payload) => {
                let err = StorageError::WorkerPanicked(panic_message(payload));
                token.cancel(&err);
                Err(err)
            }
        }
    };
    // Worker 0 runs on the calling thread, which would otherwise only block
    // in the scope: one spawn fewer per phase, and `threads == 1` spawns
    // nothing. `guarded` cannot unwind, so the scope always joins cleanly.
    let results: Vec<Result<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads)
            .map(|w| {
                let guarded = &guarded;
                scope.spawn(move || guarded(w))
            })
            .collect();
        let first = guarded(0);
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| {
                // `guarded` already caught in-closure panics; this only
                // fires if the thread died outside it (e.g. a panicking
                // TLS destructor).
                h.join().unwrap_or_else(|payload| {
                    Err(StorageError::WorkerPanicked(panic_message(payload)))
                })
            }))
            .collect()
    });
    let mut values = Vec::with_capacity(results.len());
    let mut first_err = None;
    for result in results {
        match result {
            Ok(v) => values.push(v),
            Err(e) => {
                if first_err.is_none() || matches!(first_err, Some(StorageError::Cancelled)) {
                    first_err = Some(e);
                }
            }
        }
    }
    match first_err {
        None => Ok(values),
        // Prefer the temporally-first error the token recorded over
        // whichever failure sits first in worker order.
        Some(fallback) => Err(token.reason().unwrap_or(fallback)),
    }
}

/// Runs `threads` workers, each receiving its worker id `0..threads`, and
/// collects their results in worker order; the first error or panic is the
/// run's error (see the [module docs](self)). Each worker's whole closure
/// is bracketed by a span of the given phase under its worker id, and the
/// closure receives a [`WorkerObs`] to record finer spans and counters
/// lock-free (flushed when the worker finishes); under `Obs::off()` it
/// records nothing.
pub fn run_workers_obs<T, F>(threads: usize, obs: &Obs, phase: Phase, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &mut WorkerObs) -> Result<T> + Sync,
{
    run_workers_cancel(threads, &CancelToken::new(), |w, _| {
        let mut wobs = obs.worker(w);
        // Attribute traced device I/O from this worker thread to the phase.
        let _io = obs.io_phase(phase);
        let started = wobs.start();
        let result = f(w, &mut wobs);
        wobs.record(phase, started);
        result
    })
}

/// Executes `count` independent tasks on `threads` workers via an atomic
/// work queue and returns the results **in task order** — the canonical
/// order a sequential loop over `0..count` would produce, regardless of
/// which worker ran which task or when.
///
/// Tasks are claimed with a relaxed `fetch_add`, so which worker runs which
/// task is nondeterministic; only the result order is fixed. Each worker
/// gets its own mutable state from `init` (a sort scratch, a staging
/// buffer, …) that is reused across every task the worker claims, so
/// per-task work can stay allocation-free; `|| ()` when a task needs none.
/// Run generation and the SMJ cascade use the order (tasks are sort chunks
/// or merge groups, the results the runs in canonical order); the
/// partition-wise probe and the fused merge-join sum the counts. Every
/// claimed task becomes a span of the given phase tagged with its worker
/// id and task index — the raw material of the per-worker timelines (a
/// worker's gaps between task spans are its idle/claim time); pass
/// `&Obs::off()` to record nothing.
pub fn ordered_tasks<S, T, F, I>(
    threads: usize,
    obs: &Obs,
    phase: Phase,
    count: usize,
    init: I,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let token = CancelToken::new();
    let per_worker = run_workers_cancel(threads.max(1).min(count.max(1)), &token, |w, token| {
        let mut wobs = obs.worker(w);
        let _io = obs.io_phase(phase);
        let mut state = init();
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            // Task boundary: once a sibling fails, stop claiming work.
            token.check()?;
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task >= count {
                return Ok(done);
            }
            let started = wobs.start();
            done.push((task, f(&mut state, task)?));
            wobs.record_task(phase, task, started);
        }
    })?;
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (task, result) in per_worker.into_iter().flatten() {
        slots[task] = Some(result);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every task index claimed exactly once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::StorageError;

    #[test]
    fn run_workers_returns_results_in_worker_order() {
        let squares = run_workers_obs(4, &Obs::off(), Phase::Partition, |w, _| Ok(w * w)).unwrap();
        assert_eq!(squares, vec![0, 1, 4, 9]);
    }

    #[test]
    fn run_workers_propagates_errors() {
        let err = run_workers_obs(3, &Obs::off(), Phase::Partition, |w, _| {
            if w == 1 {
                Err(StorageError::Io("boom".into()))
            } else {
                Ok(w)
            }
        })
        .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[test]
    fn run_workers_catches_panics_at_every_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let err = run_workers_obs(
                threads,
                &Obs::off(),
                Phase::Partition,
                |w, _| -> Result<usize> {
                    if w == 0 {
                        panic!("task {w} exploded");
                    }
                    Ok(w)
                },
            )
            .unwrap_err();
            match err {
                StorageError::WorkerPanicked(msg) => {
                    assert!(msg.contains("exploded"), "payload preserved: {msg}")
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_zero_runs_on_the_calling_thread_and_only_the_rest_are_spawned() {
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 3, 8] {
            // The barrier keeps all workers alive at once, so each needs a
            // thread of its own.
            let barrier = std::sync::Barrier::new(threads);
            let ids = run_workers_obs(threads, &Obs::off(), Phase::Partition, |_, _| {
                barrier.wait();
                Ok(std::thread::current().id())
            })
            .unwrap();
            assert_eq!(ids[0], caller, "worker 0 is the caller");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), threads, "{threads} workers, T − 1 spawned");
            assert!(ids[1..].iter().all(|&id| id != caller));
        }
    }

    #[test]
    fn a_panic_in_worker_zero_on_the_calling_thread_cancels_the_siblings() {
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};
        let token = CancelToken::new();
        let all_running = std::sync::Barrier::new(3);
        let cancelled_siblings = AtomicUsize::new(0);
        let err = run_workers_cancel(3, &token, |w, token| -> Result<usize> {
            all_running.wait();
            if w == 0 {
                panic!("worker zero exploded");
            }
            let deadline = Instant::now() + Duration::from_secs(30);
            while Instant::now() < deadline {
                if token.check().is_err() {
                    cancelled_siblings.fetch_add(1, Ordering::Relaxed);
                    return Err(StorageError::Cancelled);
                }
                std::thread::yield_now();
            }
            Ok(w)
        })
        .unwrap_err();
        match err {
            StorageError::WorkerPanicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(cancelled_siblings.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn run_workers_cancel_reports_root_cause_not_victims() {
        // Worker 2 fails first (others wait on the token), so the root
        // cause must be worker 2's error even though worker 0 sits earlier
        // in worker order and returns Cancelled.
        let token = CancelToken::new();
        let err = run_workers_cancel(4, &token, |w, token| -> Result<usize> {
            if w == 2 {
                return Err(StorageError::Io("root cause".into()));
            }
            // Siblings poll until cancelled.
            for _ in 0..10_000 {
                if token.is_cancelled() {
                    return Err(StorageError::Cancelled);
                }
                std::thread::yield_now();
            }
            Ok(w)
        })
        .unwrap_err();
        assert_eq!(err, StorageError::Io("root cause".into()));
        assert_eq!(token.reason(), Some(StorageError::Io("root cause".into())));
    }

    #[test]
    fn ordered_tasks_stops_claiming_after_first_error() {
        use std::sync::atomic::AtomicU64;
        let executed = AtomicU64::new(0);
        let err = ordered_tasks(
            2,
            &Obs::off(),
            Phase::Probe,
            10_000,
            || (),
            |_, i| {
                executed.fetch_add(1, Ordering::Relaxed);
                if i == 0 {
                    Err(StorageError::Io("early".into()))
                } else {
                    // Give the failing task time to trip the token.
                    std::thread::sleep(std::time::Duration::from_micros(50));
                    Ok(1)
                }
            },
        )
        .unwrap_err();
        assert_eq!(err, StorageError::Io("early".into()));
        assert!(
            executed.load(Ordering::Relaxed) < 10_000,
            "siblings should stop at a task boundary instead of draining the queue"
        );
    }

    #[test]
    fn a_panicking_worker_does_not_poison_siblings() {
        // The shared mutex is poisoned by worker 0's panic; a poison-
        // tolerant sibling still finishes, and the caller sees one clean
        // WorkerPanicked error.
        let shared = std::sync::Mutex::new(0u64);
        let err = run_workers_obs(4, &Obs::off(), Phase::Partition, |w, _| -> Result<u64> {
            if w == 0 {
                let _guard = shared.lock().unwrap();
                panic!("poisoning panic");
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            let mut guard = nocap_storage::lock_unpoisoned(&shared);
            *guard += 1;
            Ok(*guard)
        })
        .unwrap_err();
        assert!(matches!(err, StorageError::WorkerPanicked(_)));
        assert_eq!(*nocap_storage::lock_unpoisoned(&shared), 3);
    }

    #[test]
    fn ordered_tasks_covers_every_task_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let results = ordered_tasks(
            4,
            &Obs::off(),
            Phase::Probe,
            100,
            || (),
            |_, i| {
                hits.fetch_add(1, Ordering::Relaxed);
                Ok(i as u64)
            },
        )
        .unwrap();
        assert_eq!(results.iter().sum::<u64>(), (0..100u64).sum());
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn ordered_tasks_returns_results_in_task_order() {
        for threads in [1usize, 2, 4, 8] {
            let results = ordered_tasks(
                threads,
                &Obs::off(),
                Phase::SortRunGen,
                50,
                || 0usize,
                |state, i| {
                    *state += 1;
                    Ok(i * i)
                },
            )
            .unwrap();
            assert_eq!(results, (0..50).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ordered_tasks_reuses_worker_state() {
        // Single worker: the per-worker state must see every task.
        let results = ordered_tasks(
            1,
            &Obs::off(),
            Phase::SortRunGen,
            10,
            || 0usize,
            |seen, _| {
                *seen += 1;
                Ok(*seen)
            },
        )
        .unwrap();
        assert_eq!(results, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_tasks_propagates_errors() {
        let err = ordered_tasks(
            4,
            &Obs::off(),
            Phase::SortRunGen,
            20,
            || (),
            |_, i| {
                if i == 13 {
                    Err(StorageError::Io("boom".into()))
                } else {
                    Ok(i)
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[test]
    fn ordered_tasks_with_zero_tasks_is_empty() {
        let results: Vec<usize> =
            ordered_tasks(4, &Obs::off(), Phase::SortRunGen, 0, || (), |_, i| Ok(i)).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn run_workers_obs_records_one_timeline_per_worker() {
        let obs = Obs::recording();
        let results = run_workers_obs(4, &obs, Phase::Partition, |w, wobs| {
            wobs.count("records_routed", (w + 1) as u64);
            Ok(w)
        })
        .unwrap();
        assert_eq!(results, vec![0, 1, 2, 3]);
        let trace = obs.take_trace().unwrap();
        let mut workers: Vec<usize> = trace.spans.iter().filter_map(|s| s.worker).collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1, 2, 3]);
        assert!(trace
            .spans
            .iter()
            .all(|s| s.phase == Phase::Partition && s.end_ns >= s.start_ns));
        assert_eq!(trace.counters.get("records_routed"), Some(&10));
    }

    #[test]
    fn ordered_tasks_obs_keeps_task_order_and_spans() {
        let obs = Obs::recording();
        let results =
            ordered_tasks(4, &obs, Phase::SortRunGen, 15, || (), |_, i| Ok(i * 2)).unwrap();
        assert_eq!(results, (0..15).map(|i| i * 2).collect::<Vec<_>>());
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.spans.len(), 15);
        assert!(trace.spans.iter().all(|s| s.phase == Phase::SortRunGen));
        // One span per task, each tagged with the worker that ran it.
        let mut tasks: Vec<usize> = trace.spans.iter().filter_map(|s| s.task).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..15).collect::<Vec<_>>());
        assert!(trace.spans.iter().all(|s| s.worker.is_some()));
    }

    #[test]
    fn obs_off_changes_nothing() {
        let run = |obs: &Obs| {
            ordered_tasks(4, obs, Phase::Probe, 50, || (), |_, i| Ok(i as u64)).unwrap()
        };
        assert_eq!(run(&Obs::recording()), run(&Obs::off()));
    }
}
