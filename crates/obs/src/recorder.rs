//! The recording handles, [`Obs`] and [`WorkerObs`], and the in-memory sink
//! they record into.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nocap_storage::device::DeviceRef;

use crate::hist::HistogramSummary;
use crate::io::{self, IoPhaseMark, IoSinkState, IoWorkerMark, ObsIoSink};
use crate::trace::{ExecutionTrace, SpanRec};
use crate::Phase;

#[derive(Debug, Default)]
struct TraceState {
    spans: Vec<SpanRec>,
    counters: std::collections::BTreeMap<String, u64>,
    values: std::collections::BTreeMap<String, Vec<u64>>,
    gauges: std::collections::BTreeMap<String, u64>,
}

/// The sink a recording [`Obs`] writes into: accumulates spans, counters,
/// value histograms and gauges into an [`ExecutionTrace`]. Methods take
/// `&self` because the sink is shared by every worker; one mutex guards it.
///
/// Worker threads never touch the mutex while recording — they buffer into
/// [`WorkerObs`] and land here once, via `record_spans`, when the worker
/// completes.
#[derive(Debug, Default)]
struct TraceRecorder {
    state: Mutex<TraceState>,
}

impl TraceRecorder {
    /// Records one completed span (main thread or flushed from a worker).
    fn record_span(&self, span: SpanRec) {
        self.state.lock().expect("trace lock").spans.push(span);
    }

    /// Absorbs a worker's buffered spans in one call.
    fn record_spans(&self, spans: Vec<SpanRec>) {
        self.state.lock().expect("trace lock").spans.extend(spans);
    }

    /// Adds `delta` to the named counter.
    fn add_count(&self, name: &str, delta: u64) {
        let mut st = self.state.lock().expect("trace lock");
        *st.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Feeds observations into the named value histogram.
    fn record_values(&self, name: &str, values: impl IntoIterator<Item = u64>) {
        let mut st = self.state.lock().expect("trace lock");
        st.values
            .entry(name.to_string())
            .or_default()
            .extend(values);
    }

    /// Raises the named gauge to at least `value` (high-water mark).
    fn gauge_max(&self, name: &str, value: u64) {
        let mut st = self.state.lock().expect("trace lock");
        let g = st.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(value);
    }

    /// Drains the accumulated trace.
    fn take_trace(&self) -> ExecutionTrace {
        let mut st = self.state.lock().expect("trace lock");
        let st = std::mem::take(&mut *st);
        let mut trace = ExecutionTrace {
            spans: st.spans,
            counters: st.counters,
            histograms: Default::default(),
            gauges: st.gauges,
            ..Default::default()
        };
        // Canonical span order: by start time, then phase, so the emitted
        // trace is stable regardless of worker flush order.
        trace
            .spans
            .sort_by_key(|s| (s.start_ns, s.worker, s.task, s.phase));
        for (name, mut vals) in st.values {
            trace
                .histograms
                .insert(name, HistogramSummary::from_values(&mut vals));
        }
        trace
    }
}

#[derive(Debug, Clone)]
struct ObsInner {
    rec: Arc<TraceRecorder>,
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
                rec: Arc::default(),
                epoch,
                io: Arc::new(IoSinkState::new(epoch)),
            }),
        }
    }

    /// Whether a recorder is attached.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
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

    /// Adds `delta` to a named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(i) = &self.inner {
            i.rec.add_count(name, delta);
        }
    }

    /// Feeds observations into a named value histogram (p50/p99/max skew
    /// summaries). The iterator is not consumed when recording is off.
    pub fn values<I>(&self, name: &str, vals: I)
    where
        I: IntoIterator<Item = u64>,
    {
        if let Some(i) = &self.inner {
            i.rec.record_values(name, vals);
        }
    }

    /// Raises a named gauge to at least `value` (high-water mark).
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(i) = &self.inner {
            i.rec.gauge_max(name, value);
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
            let mut trace = i.rec.take_trace();
            let (events, markers) = i.io.drain();
            trace.io_events = events;
            trace.io_markers = markers;
            trace
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
            i.rec.record_span(SpanRec {
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
            i.rec.record_span(SpanRec {
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
                i.obs.rec.record_spans(i.spans);
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
        assert!(!obs.is_recording());
        {
            let _s = obs.span(Phase::Partition);
            obs.count("c", 5);
            obs.values("h", [1, 2, 3]);
            obs.gauge_max("g", 9);
            let mut w = obs.worker(0);
            let t = w.start();
            w.record_task(Phase::Probe, 3, t);
        }
        assert!(obs.take_trace().is_none());
    }

    #[test]
    fn values_does_not_consume_iterator_when_off() {
        let obs = Obs::off();
        let mut pulled = 0u64;
        obs.values(
            "h",
            std::iter::from_fn(|| {
                pulled += 1;
                Some(pulled)
            })
            .take(10),
        );
        assert_eq!(
            pulled, 0,
            "lazy skew iterators must stay untouched when off"
        );
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
        obs.count("x", 1);
        assert!(obs.take_trace().is_some());
        let second = obs.take_trace().unwrap();
        assert!(second.spans.is_empty() && second.counters.is_empty());
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let obs = Obs::recording();
        obs.gauge_max("pool_peak", 5);
        obs.gauge_max("pool_peak", 12);
        obs.gauge_max("pool_peak", 3);
        let trace = obs.take_trace().unwrap();
        assert_eq!(trace.gauges.get("pool_peak"), Some(&12));
    }
}
