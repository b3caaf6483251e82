//! The recording handles, [`Obs`] and [`WorkerObs`], and the in-memory sink
//! they record into.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nocap_storage::device::DeviceRef;

use crate::io::{self, IoPhaseMark, IoSinkState, IoWorkerMark, ObsIoSink};
use crate::trace::{ExecutionTrace, SpanRec};
use crate::Phase;

#[derive(Debug, Clone)]
struct ObsInner {
    /// The completed spans, shared by every clone and every worker. Main
    /// thread spans land one at a time; worker threads never touch the
    /// mutex while recording — they buffer into [`WorkerObs`] and land
    /// here once, when the worker completes.
    spans: Arc<Mutex<Vec<SpanRec>>>,
    epoch: Instant,
    /// Buffers for device-level I/O events, shared by every clone of this
    /// handle so nested [`Obs::attach_io`] scopes reuse one sequence order.
    io: Arc<IoSinkState>,
}

/// Cheap cloneable observability handle threaded through the executors.
///
/// With no recorder attached ([`Obs::off`], also the `Default`), every probe
/// is a branch on `None`: no clock reads, no allocation, no synchronization.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<ObsInner>,
}

impl Obs {
    /// A disabled handle — all probes are no-ops.
    pub fn off() -> Self {
        Obs { inner: None }
    }

    /// A handle recording into a fresh in-memory trace; drain it with
    /// [`Obs::take_trace`]. The epoch for span timestamps is the moment
    /// this handle is created.
    pub fn recording() -> Self {
        let epoch = Instant::now();
        Obs {
            inner: Some(ObsInner {
                spans: Arc::default(),
                epoch,
                io: Arc::new(IoSinkState::new(epoch)),
            }),
        }
    }

    fn now_ns(inner: &ObsInner) -> u64 {
        inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a main-thread phase span; it closes (and records) on drop.
    ///
    /// While the span is open, device I/O traced on this thread is
    /// attributed to `phase` (innermost span wins).
    pub fn span(&self, phase: Phase) -> PhaseSpan {
        PhaseSpan {
            inner: self
                .inner
                .as_ref()
                .map(|i| (i.clone(), phase, Self::now_ns(i))),
            _mark: if self.inner.is_some() {
                io::mark_phase(phase)
            } else {
                IoPhaseMark::inactive()
            },
        }
    }

    /// Marks the calling thread's traced device I/O as belonging to `phase`
    /// until the guard drops, without opening a span. Used inside worker
    /// closures, where the span itself is recorded separately. No-op when
    /// recording is off.
    pub fn io_phase(&self, phase: Phase) -> IoPhaseMark {
        if self.inner.is_some() {
            io::mark_phase(phase)
        } else {
            IoPhaseMark::inactive()
        }
    }

    /// Creates the per-worker recording handle for worker `worker`.
    ///
    /// The returned handle buffers locally (lock-free) and flushes into the
    /// recorder when dropped. While it lives, traced device I/O issued by
    /// the calling thread is attributed to this worker id — create the
    /// handle on the thread that does the work and drop it there.
    pub fn worker(&self, worker: usize) -> WorkerObs {
        WorkerObs {
            inner: self.inner.as_ref().map(|i| WorkerInner {
                obs: i.clone(),
                worker,
                spans: Vec::new(),
                _mark: io::mark_worker(worker),
            }),
        }
    }

    /// Installs this handle's I/O sink on `device` for the lifetime of the
    /// returned guard (no-op when recording is off, or when `device` is not
    /// a `TracedDevice`).
    ///
    /// Every `_obs` executor entry point calls this on its input device, so
    /// wrapping a workload's device in `TracedDevice` is all it takes to get
    /// the device-level event stream into the run's [`ExecutionTrace`]; the
    /// sharded statistics pass attaches too. Attaching snapshots the device
    /// counters once, so the event stream starts marker-bounded; nested
    /// attachments share the outer sink. The sink is removed when the
    /// outermost guard drops.
    pub fn attach_io(&self, device: &DeviceRef) -> IoTraceGuard {
        let Some(i) = self.inner.as_ref() else {
            return IoTraceGuard { inner: None };
        };
        if i.io.depth.fetch_add(1, Ordering::SeqCst) == 0 {
            device.set_io_sink(Some(Arc::new(ObsIoSink {
                state: i.io.clone(),
            })));
            // Opening marker: a snapshot through the traced device, so every
            // subsequent event falls inside a marker-bounded window.
            let _ = device.stats();
        }
        IoTraceGuard {
            inner: Some((i.io.clone(), device.clone())),
        }
    }

    /// Starts the whole-run stopwatch. Unlike phase spans, the timer always
    /// reads the clock — its elapsed time is `JoinRunReport::wall_seconds`,
    /// which the executors have always measured.
    pub fn run_timer(&self) -> RunTimer {
        RunTimer {
            started: Instant::now(),
            start_ns: self.inner.as_ref().map(Self::now_ns),
        }
    }

    /// Drains the accumulated trace (`None` when off).
    pub fn take_trace(&self) -> Option<ExecutionTrace> {
        self.inner.as_ref().map(|i| {
            let mut spans = std::mem::take(&mut *i.spans.lock().expect("trace lock"));
            // Canonical order, so the trace is stable regardless of worker
            // flush order.
            spans.sort_by_key(|s| (s.start_ns, s.worker, s.task, s.phase));
            let (io_events, io_markers) = i.io.drain();
            ExecutionTrace {
                spans,
                io_events,
                io_markers,
            }
        })
    }
}

/// RAII guard returned by [`Obs::attach_io`]: detaches the I/O sink from the
/// device when the outermost guard drops, closing the event stream with a
/// final counter-snapshot marker.
pub struct IoTraceGuard {
    inner: Option<(Arc<IoSinkState>, DeviceRef)>,
}

impl std::fmt::Debug for IoTraceGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoTraceGuard")
            .field("attached", &self.inner.is_some())
            .finish()
    }
}

impl Drop for IoTraceGuard {
    fn drop(&mut self) {
        if let Some((state, device)) = self.inner.take() {
            if state.depth.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Closing marker before detaching, so trailing events (if
                // any) are still bounded; then remove the sink.
                let _ = device.stats();
                device.set_io_sink(None);
            }
        }
    }
}

/// RAII guard for a main-thread phase span; records on drop.
#[derive(Debug)]
pub struct PhaseSpan {
    inner: Option<(ObsInner, Phase, u64)>,
    /// Attributes traced device I/O on this thread to the span's phase.
    _mark: IoPhaseMark,
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some((i, phase, start_ns)) = self.inner.take() {
            let end_ns = Obs::now_ns(&i);
            i.spans.lock().expect("trace lock").push(SpanRec {
                phase,
                worker: None,
                task: None,
                start_ns,
                end_ns,
            });
        }
    }
}

/// A captured span start: `None` inside means recording is off and closing
/// the span will be a no-op.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Option<u64>);

/// Whole-run stopwatch created by [`Obs::run_timer`].
#[derive(Debug)]
pub struct RunTimer {
    started: Instant,
    start_ns: Option<u64>,
}

impl RunTimer {
    /// Stops the timer, records a [`Phase::Total`] span when recording, and
    /// returns the elapsed wall-clock seconds.
    pub fn stop(self, obs: &Obs) -> f64 {
        let secs = self.started.elapsed().as_secs_f64();
        if let (Some(i), Some(start_ns)) = (obs.inner.as_ref(), self.start_ns) {
            i.spans.lock().expect("trace lock").push(SpanRec {
                phase: Phase::Total,
                worker: None,
                task: None,
                start_ns,
                end_ns: Obs::now_ns(i),
            });
        }
        secs
    }
}

#[derive(Debug)]
struct WorkerInner {
    obs: ObsInner,
    worker: usize,
    spans: Vec<SpanRec>,
    /// Attributes traced device I/O on this thread to this worker id.
    _mark: IoWorkerMark,
}

/// Per-worker recording handle: buffers task spans in a plain local vector
/// (`&mut self`, no synchronization) and flushes them into the shared
/// recorder with a single lock acquisition on drop.
#[derive(Debug)]
pub struct WorkerObs {
    inner: Option<WorkerInner>,
}

impl WorkerObs {
    /// Captures a span start timestamp (no-op when off).
    pub fn start(&self) -> SpanStart {
        SpanStart(self.inner.as_ref().map(|i| Obs::now_ns(&i.obs)))
    }

    /// Closes a span begun with [`WorkerObs::start`] under this worker's id,
    /// attributed to work-queue task `task`.
    pub fn record_task(&mut self, phase: Phase, task: usize, start: SpanStart) {
        if let (Some(i), Some(start_ns)) = (self.inner.as_mut(), start.0) {
            let end_ns = Obs::now_ns(&i.obs);
            i.spans.push(SpanRec {
                phase,
                worker: Some(i.worker),
                task: Some(task),
                start_ns,
                end_ns,
            });
        }
    }
}

impl Drop for WorkerObs {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            if !i.spans.is_empty() {
                i.obs.spans.lock().expect("trace lock").extend(i.spans);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        {
            let _s = obs.span(Phase::Partition);
            let mut w = obs.worker(0);
            let t = w.start();
            w.record_task(Phase::Probe, 3, t);
        }
        assert!(obs.take_trace().is_none());
    }

    #[test]
    fn spans_nest_and_are_contained() {
        let obs = Obs::recording();
        {
            let _outer = obs.span(Phase::Partition);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = obs.span(Phase::Build);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.phase == Phase::Partition);
        let inner = trace.spans.iter().find(|s| s.phase == Phase::Build);
        let (outer, inner) = (outer.unwrap(), inner.unwrap());
        // The inner span's guard drops first, so its interval nests strictly
        // inside the outer one.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert!(inner.end_ns >= inner.start_ns);
    }

    #[test]
    fn worker_buffers_flush_on_drop() {
        let obs = Obs::recording();
        {
            let mut w = obs.worker(2);
            let t = w.start();
            w.record_task(Phase::Probe, 7, t);
        }
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].worker, Some(2));
        assert_eq!(trace.spans[0].task, Some(7));
    }

    #[test]
    fn run_timer_measures_with_and_without_recording() {
        let off = Obs::off();
        let t = off.run_timer();
        let secs = t.stop(&off);
        assert!(secs >= 0.0);
        assert!(off.take_trace().is_none());

        let on = Obs::recording();
        let t = on.run_timer();
        let secs = t.stop(&on);
        assert!(secs >= 0.0);
        let trace = on.take_trace().unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].phase, Phase::Total);
    }

    #[test]
    fn take_trace_drains_once() {
        let obs = Obs::recording();
        drop(obs.span(Phase::Build));
        assert_eq!(obs.take_trace().unwrap().spans.len(), 1);
        let second = obs.take_trace().unwrap();
        assert!(second.spans.is_empty());
    }
}
