//! The one worker fan-out: a scoped work queue.
//!
//! Every parallel phase of the engine is the same shape, [`ordered_tasks`]:
//! a list of independent tasks claimed from an atomic cursor, results
//! landing at their task index, and each worker's private state handed
//! back in worker order. The tasks are
//!
//! * page morsels of the partitioning scans
//!   ([`page_morsels`](crate::shard::page_morsels)), where each worker's
//!   state — its staging buffers or private spill pages — is what the
//!   coordinator merges;
//! * spilled partition pairs of the build/probe phase, whose work is wildly
//!   uneven under skew, so static assignment would leave workers idle (the
//!   counts are summed);
//! * units whose artifacts downstream consumers need in canonical order:
//!   the sort chunks and merge groups of `SortMergeJoin::run_parallel`, the
//!   statistics shards folded in shard order.
//!
//! It is built on `std::thread::scope`, so borrowed state (the shared hash
//! table, the writer sets, the device) needs no `'static` gymnastics.
//! Worker 0 always runs on the calling thread — the caller would only block
//! until the others finish — so a fan-out of `n` workers spawns `n − 1`
//! threads.
//!
//! **Fail-clean contract.** The fan-out catches worker panics and converts
//! them to [`StorageError::WorkerPanicked`] (the process never aborts
//! because one task misbehaved), and it runs under a cancellation token:
//! the first failing task trips it, siblings observe it before their next
//! claim and bail with [`StorageError::Cancelled`], and the caller receives
//! the recorded root cause — not whichever victim finished last. Cleanup
//! relies on RAII (relations that delete their files on drop, reservations,
//! poison-tolerant locks), so a cancelled or panicked run releases
//! everything it acquired.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use nocap_obs::{Obs, Phase};
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

/// Executes `count` independent tasks on `threads` workers via an atomic
/// work queue and returns the results **in task order** — the canonical
/// order a sequential loop over `0..count` would produce, regardless of
/// which worker ran which task or when — together with each worker's state,
/// **in worker order**.
///
/// Tasks are claimed with a relaxed `fetch_add`, so which worker runs which
/// task is nondeterministic; only the result order is fixed. Each worker
/// gets its own mutable state from `init` (a sort scratch, a staging
/// buffer, …) that is reused across every task the worker claims, so
/// per-task work can stay allocation-free; `|| ()` when a task needs none.
/// A worker that claims nothing still returns its fresh state. Run
/// generation and the SMJ cascade use the order (tasks are sort chunks or
/// merge groups, the results the runs in canonical order); the partition
/// scans use the states (tasks are page morsels, the states what each
/// worker staged or spilled); the partition-wise probe and the fused
/// merge-join sum the counts.
///
/// `min(threads, count)` workers run, at least one: worker 0 on the calling
/// thread and the rest spawned, so one worker spawns nothing — which is
/// what lets the joins' sequential `run` be a fan-out at one worker. Every
/// worker polls the run's cancellation token before it claims a task, so
/// once any task fails its siblings stop at their next task; the error
/// returned is the run's root cause (see the [module docs](self)).
///
/// Every claimed task becomes a span of the given phase tagged with its
/// worker id and task index — the raw material of the per-worker timelines
/// (a worker's gaps between task spans are its idle/claim time); pass
/// `&Obs::off()` to record nothing.
pub fn ordered_tasks<S, T, F, I>(
    threads: usize,
    obs: &Obs,
    phase: Phase,
    count: usize,
    init: I,
    f: F,
) -> Result<(Vec<T>, Vec<S>)>
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> Result<T> + Sync,
{
    let cursor = AtomicUsize::new(0);
    let token = CancelToken::new();
    let worker = |w: usize| -> Result<(Vec<(usize, T)>, S)> {
        let mut wobs = obs.worker(w);
        // Attribute traced device I/O from this worker thread to the phase.
        let _io = obs.io_phase(phase);
        let mut state = init();
        let mut done = Vec::new();
        loop {
            // Task boundary: once a sibling fails, stop claiming work.
            token.check()?;
            let task = cursor.fetch_add(1, Ordering::Relaxed);
            if task >= count {
                return Ok((done, state));
            }
            let started = wobs.start();
            done.push((task, f(&mut state, task)?));
            wobs.record_task(phase, task, started);
        }
    };
    // Unwind safety: the tasks only share poison-tolerant structures
    // (sync-helper locks, atomics, the cancel token) whose state mutates at
    // item granularity, so observing them after a sibling's panic is sound.
    let guarded = |w: usize| {
        let result = catch_unwind(AssertUnwindSafe(|| worker(w)))
            .unwrap_or_else(|payload| Err(StorageError::WorkerPanicked(panic_message(payload))));
        if let Err(err) = &result {
            token.cancel(err);
        }
        result
    };
    // Worker 0 runs on the calling thread, which would otherwise only block
    // in the scope. `guarded` cannot unwind, so the scope always joins
    // cleanly.
    let workers = threads.max(1).min(count.max(1));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|w| {
                let guarded = &guarded;
                scope.spawn(move || guarded(w))
            })
            .collect();
        let first = guarded(0);
        std::iter::once(first)
            .chain(handles.into_iter().map(|h| {
                // `guarded` already caught in-task panics; this only fires
                // if the thread died outside it (e.g. a panicking TLS
                // destructor).
                h.join().unwrap_or_else(|payload| {
                    Err(StorageError::WorkerPanicked(panic_message(payload)))
                })
            }))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut states = Vec::with_capacity(workers);
    for result in results {
        // The token holds the temporally-first error; a worker that bailed
        // with `Cancelled` is a victim, whatever its place in worker order.
        let (done, state) = result.map_err(|err| token.reason().unwrap_or(err))?;
        for (task, value) in done {
            slots[task] = Some(value);
        }
        states.push(state);
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every task index claimed exactly once"))
        .collect();
    Ok((results, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::StorageError;
    use std::sync::Barrier;
    use std::time::Duration;

    /// `ordered_tasks` with no per-worker state and no recording.
    fn tasks<T: Send>(
        threads: usize,
        count: usize,
        f: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        ordered_tasks(
            threads,
            &Obs::off(),
            Phase::Probe,
            count,
            || (),
            |_, i| f(i),
        )
        .map(|(results, _)| results)
    }

    #[test]
    fn run_workers_returns_results_in_worker_order() {
        let (squares, states) =
            ordered_tasks(4, &Obs::off(), Phase::Partition, 4, || (), |_, i| Ok(i * i)).unwrap();
        assert_eq!(squares, vec![0, 1, 4, 9]);
        assert_eq!(states.len(), 4, "one state per worker, idle ones included");
    }

    #[test]
    fn run_workers_propagates_errors() {
        let err = tasks(3, 3, |i| {
            if i == 1 {
                Err(StorageError::Io("boom".into()))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[test]
    fn run_workers_catches_panics_at_every_thread_count() {
        // At one worker the panicking task runs on the calling thread.
        for threads in [1usize, 2, 4, 8] {
            let err = tasks(threads, threads, |i| -> Result<usize> {
                panic!("task {i} exploded");
            })
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
            // Each task waits for all the others, so every worker holds
            // exactly one and needs a thread of its own.
            let barrier = Barrier::new(threads);
            let (_, ids) = ordered_tasks(
                threads,
                &Obs::off(),
                Phase::Partition,
                threads,
                || std::thread::current().id(),
                |_, _| {
                    barrier.wait();
                    Ok(())
                },
            )
            .unwrap();
            assert_eq!(ids[0], caller, "worker 0 is the caller");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct.len(), threads, "{threads} workers, T − 1 spawned");
            assert!(ids[1..].iter().all(|&id| id != caller));
        }
    }

    /// Runs `count` tasks on `threads` workers whose first tasks all meet at
    /// a barrier — so every worker is running when `first` decides a task's
    /// fate — and whose later tasks take 100 µs each. Returns the error and
    /// how many tasks ran.
    fn fail_among_running_siblings(
        threads: usize,
        count: usize,
        first: impl Fn(usize) -> Result<()> + Sync,
    ) -> (StorageError, usize) {
        let all_running = Barrier::new(threads);
        let ran = AtomicUsize::new(0);
        let err = ordered_tasks(
            threads,
            &Obs::off(),
            Phase::Partition,
            count,
            || true,
            |is_first, i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if std::mem::take(is_first) {
                    all_running.wait();
                    return first(i);
                }
                std::thread::sleep(Duration::from_micros(100));
                Ok(())
            },
        )
        .unwrap_err();
        (err, ran.into_inner())
    }

    #[test]
    fn a_panic_in_worker_zero_on_the_calling_thread_cancels_the_siblings() {
        let caller = std::thread::current().id();
        let count = 10_000;
        let (err, ran) = fail_among_running_siblings(3, count, |_| {
            if std::thread::current().id() == caller {
                panic!("worker zero exploded");
            }
            Ok(())
        });
        match err {
            StorageError::WorkerPanicked(msg) => assert!(msg.contains("exploded"), "{msg}"),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert!(
            ran < count,
            "the siblings stop at a task boundary instead of draining the queue"
        );
    }

    #[test]
    fn run_workers_cancel_reports_root_cause_not_victims() {
        // Task 2 fails while the other workers keep claiming tasks until
        // they observe the cancellation and bail with `Cancelled`; the root
        // cause must win even when the worker that failed sits after a
        // victim in worker order.
        let (err, _) = fail_among_running_siblings(4, 10_000, |i| {
            if i == 2 {
                Err(StorageError::Io("root cause".into()))
            } else {
                Ok(())
            }
        });
        assert_eq!(err, StorageError::Io("root cause".into()));
    }

    #[test]
    fn ordered_tasks_stops_claiming_after_first_error() {
        use std::sync::atomic::AtomicU64;
        let executed = AtomicU64::new(0);
        let err = tasks(2, 10_000, |i| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(StorageError::Io("early".into()))
            } else {
                // Give the failing task time to trip the token.
                std::thread::sleep(Duration::from_micros(50));
                Ok(1)
            }
        })
        .unwrap_err();
        assert_eq!(err, StorageError::Io("early".into()));
        assert!(
            executed.load(Ordering::Relaxed) < 10_000,
            "siblings should stop at a task boundary instead of draining the queue"
        );
    }

    #[test]
    fn a_panicking_worker_does_not_poison_siblings() {
        // The shared mutex is poisoned by task 0's panic; the poison-
        // tolerant siblings, each holding one task, still finish, and the
        // caller sees one clean WorkerPanicked error.
        let shared = std::sync::Mutex::new(0u64);
        let all_running = Barrier::new(4);
        let err = tasks(4, 4, |i| -> Result<u64> {
            all_running.wait();
            if i == 0 {
                let _guard = shared.lock().unwrap();
                panic!("poisoning panic");
            }
            std::thread::sleep(Duration::from_millis(1));
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
        let results = tasks(4, 100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            Ok(i as u64)
        })
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
            let (results, states) = ordered_tasks(
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
            assert_eq!(states.iter().sum::<usize>(), 50, "every task in one state");
        }
    }

    #[test]
    fn ordered_tasks_reuses_worker_state() {
        // Single worker: the per-worker state must see every task.
        let (results, states) = ordered_tasks(
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
        assert_eq!(states, vec![10]);
    }

    #[test]
    fn ordered_tasks_propagates_errors() {
        let err = tasks(4, 20, |i| {
            if i == 13 {
                Err(StorageError::Io("boom".into()))
            } else {
                Ok(i)
            }
        })
        .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
    }

    #[test]
    fn ordered_tasks_with_zero_tasks_is_empty() {
        let (results, states): (Vec<usize>, _) =
            ordered_tasks(4, &Obs::off(), Phase::SortRunGen, 0, || (), |_, i| Ok(i)).unwrap();
        assert!(results.is_empty());
        assert_eq!(states.len(), 1, "one worker runs, and claims nothing");
    }

    #[test]
    fn ordered_tasks_obs_keeps_task_order_and_spans() {
        let obs = Obs::recording();
        let (results, _) =
            ordered_tasks(4, &obs, Phase::SortRunGen, 15, || (), |_, i| Ok(i * 2)).unwrap();
        assert_eq!(results, (0..15).map(|i| i * 2).collect::<Vec<_>>());
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.spans.len(), 15);
        assert!(trace.spans.iter().all(|s| s.phase == Phase::SortRunGen));
        // One span per task, each tagged with the worker that ran it.
        let mut tasks: Vec<usize> = trace.spans.iter().filter_map(|s| s.task).collect();
        tasks.sort_unstable();
        assert_eq!(tasks, (0..15).collect::<Vec<_>>());
        assert!(trace.spans.iter().all(|s| s.worker.is_some_and(|w| w < 4)));
    }

    #[test]
    fn obs_off_changes_nothing() {
        let run = |obs: &Obs| {
            ordered_tasks(4, obs, Phase::Probe, 50, || (), |_, i| Ok(i as u64))
                .unwrap()
                .0
        };
        assert_eq!(run(&Obs::recording()), run(&Obs::off()));
    }
}
