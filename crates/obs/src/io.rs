//! Device-level I/O event capture: records, worker/phase attribution and
//! the [`IoEventSink`] implementation installed by `Obs::attach_io`.
//!
//! `nocap-storage`'s `TracedDevice` reports every successful page access to
//! an attached sink. This module provides the standard sink: it stamps each
//! event with a global sequence number, a monotonic timestamp on the shared
//! recorder epoch, and the *current worker and phase* of the calling thread,
//! then buffers it in a per-worker shard so the hot path never contends.
//!
//! ## Attribution
//!
//! Worker and phase are thread-local marks maintained by the recording
//! layer itself: [`Obs::worker`](crate::Obs::worker) marks the calling
//! thread with the worker id for the lifetime of the `WorkerObs` handle, and
//! phase spans ([`Obs::span`](crate::Obs::span) on the coordinating thread,
//! [`Obs::io_phase`](crate::Obs::io_phase) around each fan-out worker) mark the
//! enclosing phase. Marks are save/restore guards, so nested spans attribute
//! to the innermost phase and everything unwinds correctly when a scope
//! ends. None of this reads a clock or branches on shared state, and the
//! marks are only consulted when a sink is attached — recording stays
//! zero-cost-when-off and cannot perturb the run.
//!
//! ## Ordering
//!
//! The sequence counter is a single atomic, so all events and markers have a
//! total order. The executors only snapshot device counters at quiescent
//! phase barriers (after worker joins), which gives the happens-before edge
//! that makes a marker's sequence number greater than every event that the
//! counters have absorbed — the invariant the model audit relies on.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nocap_storage::device::FileId;
use nocap_storage::{IoEventSink, IoKind, IoMarkerKind, IoOp, IoStats};

use crate::Phase;

/// One traced page access, stamped with attribution and ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoEventRec {
    /// Position in the global event/marker order.
    pub seq: u64,
    /// Monotonic nanoseconds since the recorder epoch.
    pub t_ns: u64,
    /// Worker id of the issuing thread, `None` for the coordinating thread.
    pub worker: Option<usize>,
    /// Innermost phase span enclosing the access, if any.
    pub phase: Option<Phase>,
    /// File the page belongs to.
    pub file: FileId,
    /// Page index within the file (for appends: the newly written page).
    pub page: usize,
    /// The [`IoKind`] the engine declared for this access.
    pub kind: IoKind,
    /// Whether the access was a read or an append.
    pub op: IoOp,
    /// Measured wall time of the device call, when the traced device was
    /// built with latency measurement (`TracedDevice::with_latency`).
    pub latency_ns: Option<u64>,
}

/// A traced counter snapshot or reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoMarkerRec {
    /// Position in the global event/marker order.
    pub seq: u64,
    /// Monotonic nanoseconds since the recorder epoch.
    pub t_ns: u64,
    /// Snapshot or reset.
    pub kind: IoMarkerKind,
    /// Device counters at the marker (for resets: the pre-reset values).
    pub stats: IoStats,
}

/// Stable snake_case name of an [`IoKind`] for tables and JSON.
pub fn io_kind_name(kind: IoKind) -> &'static str {
    match kind {
        IoKind::SeqRead => "seq_read",
        IoKind::RandRead => "rand_read",
        IoKind::SeqWrite => "seq_write",
        IoKind::RandWrite => "rand_write",
    }
}

// ---------------------------------------------------------------------------
// Thread-local attribution marks
// ---------------------------------------------------------------------------

thread_local! {
    static WORKER_MARK: Cell<Option<usize>> = const { Cell::new(None) };
    static PHASE_MARK: Cell<Option<Phase>> = const { Cell::new(None) };
}

pub(crate) fn current_marks() -> (Option<usize>, Option<Phase>) {
    (WORKER_MARK.get(), PHASE_MARK.get())
}

/// RAII guard restoring the previous worker mark of this thread on drop.
#[derive(Debug)]
pub struct IoWorkerMark {
    prev: Option<usize>,
    active: bool,
}

pub(crate) fn mark_worker(worker: usize) -> IoWorkerMark {
    IoWorkerMark {
        prev: WORKER_MARK.replace(Some(worker)),
        active: true,
    }
}

impl Drop for IoWorkerMark {
    fn drop(&mut self) {
        if self.active {
            WORKER_MARK.set(self.prev);
        }
    }
}

/// RAII guard restoring the previous phase mark of this thread on drop.
///
/// Returned by [`Obs::io_phase`](crate::Obs::io_phase); also installed
/// implicitly by every recording phase span. An inactive guard (recording
/// off) touches nothing.
#[derive(Debug)]
pub struct IoPhaseMark {
    prev: Option<Phase>,
    active: bool,
}

impl IoPhaseMark {
    pub(crate) fn inactive() -> Self {
        IoPhaseMark {
            prev: None,
            active: false,
        }
    }
}

pub(crate) fn mark_phase(phase: Phase) -> IoPhaseMark {
    IoPhaseMark {
        prev: PHASE_MARK.replace(Some(phase)),
        active: true,
    }
}

impl Drop for IoPhaseMark {
    fn drop(&mut self) {
        if self.active {
            PHASE_MARK.set(self.prev);
        }
    }
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

/// Number of event buffers: shard 0 is the coordinating thread, workers map
/// onto the rest. One worker per shard in practice (the engine's thread
/// counts are far below this), so each buffer has a single writer and the
/// mutex acquisition is always uncontended — the same cost profile as the
/// lock-free per-worker span buffers `WorkerObs` uses.
const EVENT_SHARDS: usize = 65;

/// Shared state behind every sink an `Obs` installs. Lives on the `Obs`
/// handle so nested `attach_io` calls reuse one buffer set and one sequence
/// counter, and `take_trace` can drain it regardless of guard scope.
#[derive(Debug)]
pub(crate) struct IoSinkState {
    epoch: Instant,
    seq: AtomicU64,
    pub(crate) depth: AtomicUsize,
    shards: Vec<Mutex<Vec<IoEventRec>>>,
    markers: Mutex<Vec<IoMarkerRec>>,
}

impl IoSinkState {
    pub(crate) fn new(epoch: Instant) -> Self {
        IoSinkState {
            epoch,
            seq: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            shards: (0..EVENT_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            markers: Mutex::new(Vec::new()),
        }
    }

    /// Drains all buffered events and markers, each sorted by sequence.
    pub(crate) fn drain(&self) -> (Vec<IoEventRec>, Vec<IoMarkerRec>) {
        let mut events: Vec<IoEventRec> = Vec::new();
        for shard in &self.shards {
            events.append(&mut shard.lock().expect("io shard lock"));
        }
        events.sort_unstable_by_key(|e| e.seq);
        let mut markers = std::mem::take(&mut *self.markers.lock().expect("io marker lock"));
        markers.sort_unstable_by_key(|m| m.seq);
        (events, markers)
    }
}

/// The [`IoEventSink`] `Obs::attach_io` installs on a traced device.
#[derive(Debug)]
pub(crate) struct ObsIoSink {
    pub(crate) state: Arc<IoSinkState>,
}

impl IoEventSink for ObsIoSink {
    fn io_event(&self, file: FileId, page: usize, kind: IoKind, op: IoOp, latency_ns: Option<u64>) {
        let (worker, phase) = current_marks();
        let rec = IoEventRec {
            seq: self.state.seq.fetch_add(1, Ordering::Relaxed),
            t_ns: self.state.epoch.elapsed().as_nanos() as u64,
            worker,
            phase,
            file,
            page,
            kind,
            op,
            latency_ns,
        };
        let shard = worker.map_or(0, |w| 1 + w % (EVENT_SHARDS - 1));
        self.state.shards[shard]
            .lock()
            .expect("io shard lock")
            .push(rec);
    }

    fn io_marker(&self, kind: IoMarkerKind, stats: IoStats) {
        let rec = IoMarkerRec {
            seq: self.state.seq.fetch_add(1, Ordering::Relaxed),
            t_ns: self.state.epoch.elapsed().as_nanos() as u64,
            kind,
            stats,
        };
        self.state.markers.lock().expect("io marker lock").push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_nest_and_restore() {
        assert_eq!(current_marks(), (None, None));
        {
            let _w = mark_worker(3);
            let _p = mark_phase(Phase::Partition);
            assert_eq!(current_marks(), (Some(3), Some(Phase::Partition)));
            {
                let _inner = mark_phase(Phase::Spill);
                assert_eq!(current_marks(), (Some(3), Some(Phase::Spill)));
            }
            assert_eq!(current_marks(), (Some(3), Some(Phase::Partition)));
        }
        assert_eq!(current_marks(), (None, None));
    }

    #[test]
    fn sink_orders_events_and_markers_by_seq() {
        let state = Arc::new(IoSinkState::new(Instant::now()));
        let sink = ObsIoSink {
            state: state.clone(),
        };
        sink.io_event(FileId(1), 0, IoKind::SeqRead, IoOp::Read, None);
        sink.io_marker(IoMarkerKind::Snapshot, IoStats::new());
        {
            let _w = mark_worker(1);
            sink.io_event(FileId(1), 1, IoKind::SeqRead, IoOp::Read, Some(42));
        }
        let (events, markers) = state.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].worker, None);
        assert_eq!(events[1].seq, 2);
        assert_eq!(events[1].worker, Some(1));
        assert_eq!(events[1].latency_ns, Some(42));
        assert_eq!(markers.len(), 1);
        assert_eq!(markers[0].seq, 1);
        // Drained once: a second drain is empty.
        assert_eq!(state.drain().0.len(), 0);
    }
}
