//! Device-level I/O tracing: [`TracedDevice`] and the [`IoEventSink`] hook.
//!
//! Every latency figure in this reproduction is *modeled*: the engine
//! declares an [`IoKind`] for each page access and
//! [`DeviceProfile`](crate::DeviceProfile) converts the counters into
//! estimated seconds. Nothing in the base devices checks that the declared
//! pattern matches what actually hits the device. [`TracedDevice`] closes
//! that gap: it wraps any [`BlockDevice`] and reports every successful page
//! access — file, page index, declared kind, and (optionally) measured
//! wall-clock latency — to an attached [`IoEventSink`], without changing the
//! underlying device's behavior or accounting in any way.
//!
//! The sink is attachment-based so tracing stays zero-cost-when-off in the
//! observability sense: with no sink attached the wrapper only pays one
//! uncontended `RwLock` read per operation, emits nothing, and is
//! output-equivalent to the bare inner device. `nocap-obs` provides the
//! standard sink (`ObsIoSink`, installed via `Obs::attach_io`) that stamps
//! events with the current worker and phase and folds them into the
//! execution trace; the audit layer then replays the event stream against
//! the engine's modeled per-phase snapshots.
//!
//! Counter snapshots and resets are forwarded *and* reported as
//! [`IoMarkerKind`] markers carrying the counter values at that moment.
//! Because the executors only snapshot at quiescent phase barriers, the
//! events between two markers fold exactly to the counter delta — that
//! invariant is what the model audit checks.

use std::sync::{Arc, RwLock};
use std::time::Instant;

use crate::device::{BlockDevice, DeviceRef, FileId};
use crate::iostats::{IoKind, IoStats};
use crate::page::Page;
use crate::sync::{read_unpoisoned, write_unpoisoned};
use crate::Result;

/// Which device operation produced an I/O event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A `read_page` call.
    Read,
    /// An `append_page` call (the page index is the newly written page).
    Append,
}

/// Which counter operation produced an I/O marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoMarkerKind {
    /// A `stats()` snapshot; the marker carries the returned counters.
    Snapshot,
    /// A `reset_stats()` call; the marker carries the counters *before* the
    /// reset (deltas after it restart from zero).
    Reset,
}

/// Receiver for device-level I/O events emitted by [`TracedDevice`].
///
/// Implementations are called from whatever thread performs the I/O, so they
/// must synchronize internally; the standard implementation buffers into
/// per-worker shards to keep the hot path uncontended.
pub trait IoEventSink: Send + Sync + std::fmt::Debug {
    /// One successful page access. `latency_ns` is the measured wall time of
    /// the inner device call when the wrapper was built with
    /// [`TracedDevice::with_latency`], `None` otherwise.
    fn io_event(&self, file: FileId, page: usize, kind: IoKind, op: IoOp, latency_ns: Option<u64>);

    /// A counter snapshot or reset, with the counter values at that moment.
    fn io_marker(&self, kind: IoMarkerKind, stats: IoStats);
}

/// A [`BlockDevice`] wrapper that reports every page access to an attached
/// [`IoEventSink`].
///
/// The wrapper is purely observational: all operations forward to the inner
/// device, results (including errors and I/O accounting) are bit-identical
/// to the bare device, and failed operations emit no events (they are not
/// counted by the devices either). Attach a sink with
/// [`BlockDevice::set_io_sink`] — normally via `Obs::attach_io`, which
/// installs and removes it around one recorded run.
pub struct TracedDevice {
    inner: DeviceRef,
    sink: RwLock<Option<Arc<dyn IoEventSink>>>,
    measure_latency: bool,
}

impl TracedDevice {
    /// Wraps `inner` without latency measurement (no clock reads at all —
    /// the right mode for [`SimDevice`](crate::SimDevice) equivalence runs).
    pub fn new(inner: DeviceRef) -> Self {
        TracedDevice {
            inner,
            sink: RwLock::new(None),
            measure_latency: false,
        }
    }

    /// Wraps `inner` and measures the wall-clock latency of every inner
    /// read/append while a sink is attached (the mode for
    /// [`FileDevice`](crate::FileDevice), where the syscalls take real time).
    pub fn with_latency(inner: DeviceRef) -> Self {
        TracedDevice {
            inner,
            sink: RwLock::new(None),
            measure_latency: true,
        }
    }

    /// [`TracedDevice::new`] already wrapped in a [`DeviceRef`].
    pub fn new_ref(inner: DeviceRef) -> DeviceRef {
        Arc::new(TracedDevice::new(inner))
    }

    /// [`TracedDevice::with_latency`] already wrapped in a [`DeviceRef`].
    pub fn with_latency_ref(inner: DeviceRef) -> DeviceRef {
        Arc::new(TracedDevice::with_latency(inner))
    }

    /// The wrapped device.
    pub fn inner(&self) -> &DeviceRef {
        &self.inner
    }

    fn current_sink(&self) -> Option<Arc<dyn IoEventSink>> {
        read_unpoisoned(&self.sink).clone()
    }
}

impl std::fmt::Debug for TracedDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracedDevice")
            .field("measure_latency", &self.measure_latency)
            .field("attached", &self.current_sink().is_some())
            .finish()
    }
}

impl BlockDevice for TracedDevice {
    fn create_file(&self) -> FileId {
        self.inner.create_file()
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        self.inner.file_pages(file)
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        match self.current_sink() {
            None => self.inner.append_page(file, page, kind),
            Some(sink) => {
                let started = self.measure_latency.then(Instant::now);
                let index = self.inner.append_page(file, page, kind)?;
                let latency = started.map(|t| t.elapsed().as_nanos() as u64);
                sink.io_event(file, index, kind, IoOp::Append, latency);
                Ok(index)
            }
        }
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        match self.current_sink() {
            None => self.inner.read_page(file, index, kind),
            Some(sink) => {
                let started = self.measure_latency.then(Instant::now);
                let page = self.inner.read_page(file, index, kind)?;
                let latency = started.map(|t| t.elapsed().as_nanos() as u64);
                sink.io_event(file, index, kind, IoOp::Read, latency);
                Ok(page)
            }
        }
    }

    fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
        // Not an I/O either: no event, so the audit's folds stay exact.
        self.inner.discard_page(file, index)
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        // Deletion is not an I/O in the paper's cost model, so it emits no
        // event either.
        self.inner.delete_file(file)
    }

    fn stats(&self) -> IoStats {
        let stats = self.inner.stats();
        if let Some(sink) = self.current_sink() {
            sink.io_marker(IoMarkerKind::Snapshot, stats);
        }
        stats
    }

    fn reset_stats(&self) {
        if let Some(sink) = self.current_sink() {
            sink.io_marker(IoMarkerKind::Reset, self.inner.stats());
        }
        self.inner.reset_stats();
    }

    fn set_io_sink(&self, sink: Option<Arc<dyn IoEventSink>>) {
        *write_unpoisoned(&self.sink) = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::record::{Record, RecordLayout};
    use std::sync::Mutex;

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push(&Record::with_fill(k, 8, 0)).unwrap());
        }
        p
    }

    type SinkEvent = (FileId, usize, IoKind, IoOp, Option<u64>);

    #[derive(Debug, Default)]
    struct VecSink {
        events: Mutex<Vec<SinkEvent>>,
        markers: Mutex<Vec<(IoMarkerKind, IoStats)>>,
    }

    impl IoEventSink for VecSink {
        fn io_event(
            &self,
            file: FileId,
            page: usize,
            kind: IoKind,
            op: IoOp,
            latency_ns: Option<u64>,
        ) {
            self.events
                .lock()
                .unwrap()
                .push((file, page, kind, op, latency_ns));
        }

        fn io_marker(&self, kind: IoMarkerKind, stats: IoStats) {
            self.markers.lock().unwrap().push((kind, stats));
        }
    }

    #[test]
    fn untraced_wrapper_is_pass_through() {
        let dev = TracedDevice::new_ref(SimDevice::new_ref());
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1, 2]), IoKind::RandWrite)
            .unwrap();
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        assert_eq!(p.records().count(), 2);
        let s = dev.stats();
        assert_eq!(s.rand_writes, 1);
        assert_eq!(s.seq_reads, 1);
        dev.reset_stats();
        assert_eq!(dev.stats().total(), 0);
        dev.delete_file(f).unwrap();
    }

    #[test]
    fn attached_sink_sees_events_and_markers() {
        let dev = TracedDevice::new(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        let idx = dev
            .append_page(f, &page_with(&[7]), IoKind::SeqWrite)
            .unwrap();
        dev.read_page(f, idx, IoKind::RandRead).unwrap();
        let snap = dev.stats();
        dev.reset_stats();
        dev.set_io_sink(None);
        // Detached again: further I/O emits nothing.
        dev.append_page(f, &page_with(&[8]), IoKind::SeqWrite)
            .unwrap();

        let events = sink.events.lock().unwrap();
        assert_eq!(
            *events,
            vec![
                (f, 0, IoKind::SeqWrite, IoOp::Append, None),
                (f, 0, IoKind::RandRead, IoOp::Read, None),
            ]
        );
        let markers = sink.markers.lock().unwrap();
        assert_eq!(markers.len(), 2);
        assert_eq!(markers[0], (IoMarkerKind::Snapshot, snap));
        assert_eq!(markers[1].0, IoMarkerKind::Reset);
        assert_eq!(markers[1].1, snap, "reset marker carries pre-reset stats");
    }

    #[test]
    fn failed_operations_emit_no_events() {
        let dev = TracedDevice::new(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        assert!(dev.read_page(f, 3, IoKind::SeqRead).is_err());
        assert!(dev
            .append_page(FileId(99), &page_with(&[1]), IoKind::SeqWrite)
            .is_err());
        assert!(sink.events.lock().unwrap().is_empty());
    }

    #[test]
    fn discarding_is_forwarded_and_emits_no_event() {
        // Not an I/O: the model audit's windows fold the events to the
        // counter deltas, so a discard must add to neither.
        let sim = Arc::new(SimDevice::new());
        let dev = TracedDevice::new(sim.clone());
        let f = dev.create_file();
        for k in 0..2 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let before = dev.stats();
        dev.discard_page(f, 0).unwrap();
        assert_eq!(sim.resident_pages(), 1, "the inner device released it");
        assert!(matches!(
            dev.read_page(f, 0, IoKind::RandRead),
            Err(crate::StorageError::DiscardedPage { .. })
        ));
        assert!(sink.events.lock().unwrap().is_empty());
        assert_eq!(dev.stats(), before);
        // Taking a page is a read and a discard: one read event.
        dev.take_page(f, 1, IoKind::RandRead).unwrap();
        assert_eq!(
            *sink.events.lock().unwrap(),
            vec![(f, 1, IoKind::RandRead, IoOp::Read, None)]
        );
        assert_eq!(sim.resident_pages(), 0);
    }

    #[test]
    fn with_latency_measures_every_op() {
        let dev = TracedDevice::with_latency(SimDevice::new_ref());
        let sink = Arc::new(VecSink::default());
        dev.set_io_sink(Some(sink.clone()));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        let events = sink.events.lock().unwrap();
        assert!(events.iter().all(|e| e.4.is_some()));
    }

    #[test]
    fn base_devices_ignore_sink_attachment() {
        let dev: DeviceRef = SimDevice::new_ref();
        // Default no-op: attaching to an untraced device does nothing.
        dev.set_io_sink(Some(Arc::new(VecSink::default())));
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        assert_eq!(dev.stats().seq_writes, 1);
    }
}
