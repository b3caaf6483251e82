//! Block devices: where pages live and where I/Os are counted.
//!
//! All join algorithms in this reproduction access storage exclusively
//! through the [`BlockDevice`] trait, so the I/O trace they generate is
//! observable regardless of where the bytes actually go. Two implementations
//! are provided:
//!
//! * [`SimDevice`] — keeps pages in memory and only counts I/Os. This is the
//!   device used by every experiment: it makes the full parameter sweeps of
//!   the paper feasible on a laptop while producing exactly the I/O counts
//!   the paper's cost model reasons about.
//! * [`FileDevice`] — the production block layer over real files:
//!   a sharded open-file-handle cache with positioned reads, block-granular
//!   read-ahead and write-behind coalescing, and durability knobs. Lives in
//!   [`crate::block`] and is re-exported here.
//!
//! Devices are shared by value as [`DeviceRef`] (an `Arc`), with interior
//! locking inside each implementation. Since the `nocap-par` execution
//! engine shards partitioning scans across worker threads, every
//! [`BlockDevice`] implementation must be `Send + Sync`; the trait bound
//! makes that a compile-time requirement. [`SimDevice`] is engineered for
//! concurrent readers: pages are stored behind an `RwLock` (shared page
//! reads never serialize each other) and the I/O counters are lock-free
//! atomics, so the counting itself never becomes the scalability
//! bottleneck the device is supposed to *measure*.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

pub use crate::block::FileDevice;
use crate::iostats::{AtomicIoStats, IoKind, IoStats};
use crate::page::Page;
use crate::sync::{read_unpoisoned, write_unpoisoned};
use crate::{Result, StorageError};

/// Identifier of a file (a growable sequence of pages) on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Shared handle to a block device.
pub type DeviceRef = Arc<dyn BlockDevice>;

/// A device that stores files made of fixed-size pages and counts every I/O.
///
/// Implementations must be thread-safe: the parallel executor issues reads
/// and appends from many worker threads concurrently.
pub trait BlockDevice: Send + Sync {
    /// Creates a new, empty file and returns its id.
    fn create_file(&self) -> FileId;

    /// Number of pages currently stored in `file`.
    fn file_pages(&self, file: FileId) -> Result<usize>;

    /// Appends a page to `file`, counting one I/O of the given kind.
    /// Returns the index of the newly written page.
    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize>;

    /// Reads the page at `index` from `file`, counting one I/O of the given
    /// kind.
    ///
    /// The page is returned behind an `Arc` so an in-memory device can hand
    /// out its resident copy with a reference-count bump instead of a
    /// page-sized `memcpy` — on `SimDevice` this makes a scan allocation-
    /// free per page as well as per record.
    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>>;

    /// Releases the device's copy of page `index` of `file`. The caller
    /// owns the file and will not read that page again: a consumer that
    /// reads each page exactly once (a sorted run being merged) gives the
    /// page back as it goes instead of at [`delete_file`](Self::delete_file).
    ///
    /// Discarding is not an I/O: it counts nothing, emits no trace event and
    /// is never faulted. A device that holds no page memory of its own may
    /// treat it as a no-op; one that does must answer a later read of the
    /// page with [`StorageError::DiscardedPage`], never with an empty page.
    fn discard_page(&self, file: FileId, index: usize) -> Result<()>;

    /// Reads page `index` of `file` for the last time: a
    /// [`read_page`](Self::read_page) (one I/O of `kind`, traced, faulted
    /// and verified like any other) followed by a
    /// [`discard_page`](Self::discard_page). [`SimDevice`] does both under
    /// one lock.
    fn take_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let page = self.read_page(file, index, kind)?;
        self.discard_page(file, index)?;
        Ok(page)
    }

    /// Deletes `file` and releases its pages. Deleting an unknown file is an
    /// error; deletion itself is not counted as I/O (the paper's cost model
    /// ignores deallocation).
    fn delete_file(&self, file: FileId) -> Result<()>;

    /// Snapshot of the I/O counters.
    fn stats(&self) -> IoStats;

    /// Resets the I/O counters to zero (files are kept).
    fn reset_stats(&self);

    /// Attaches (or, with `None`, detaches) a device-level I/O event sink.
    ///
    /// Only [`TracedDevice`](crate::TracedDevice) reports events; the base
    /// devices accept and ignore the sink, so `Obs::attach_io` can be called
    /// unconditionally on any [`DeviceRef`].
    fn set_io_sink(&self, _sink: Option<Arc<dyn crate::traced::IoEventSink>>) {}
}

// ---------------------------------------------------------------------------
// SimDevice
// ---------------------------------------------------------------------------

/// In-memory block device with exact I/O accounting.
///
/// This is the storage substitute for the paper's SSD: algorithms perform
/// the same page-granular reads and writes they would against a disk, and
/// the device records how many of each kind happened. Latency is derived
/// from the trace via [`DeviceProfile`](crate::DeviceProfile).
///
/// Pages are stored as `Arc<Page>`, so a read holds the file-table lock
/// for a reference-count bump and copies nothing: the caller shares the
/// resident page. Reads take the lock in shared mode, so concurrent scans
/// of the same relation proceed without serializing. A
/// [discarded](BlockDevice::discard_page) page leaves an empty slot: the
/// file keeps its length, the page's memory goes with the last reader's
/// reference, and a read of the slot is [`StorageError::DiscardedPage`].
#[derive(Default)]
pub struct SimDevice {
    files: RwLock<HashMap<FileId, Vec<Option<Arc<Page>>>>>,
    next_id: AtomicU64,
    stats: AtomicIoStats,
}

impl SimDevice {
    /// Creates an empty simulated device.
    pub fn new() -> Self {
        SimDevice::default()
    }

    /// Creates an empty simulated device already wrapped in a [`DeviceRef`].
    pub fn new_ref() -> DeviceRef {
        Arc::new(SimDevice::new())
    }

    /// Total number of pages currently stored across all files, discarded
    /// ones excluded (useful for asserting that temporary files were
    /// cleaned up).
    pub fn resident_pages(&self) -> usize {
        read_unpoisoned(&self.files)
            .values()
            .flatten()
            .filter(|page| page.is_some())
            .count()
    }

    /// Number of live (not yet deleted) files.
    pub fn live_files(&self) -> usize {
        read_unpoisoned(&self.files).len()
    }

    /// Empties slot `index` of `file`, returning what it held.
    fn empty_slot(&self, file: FileId, index: usize) -> Result<Option<Arc<Page>>> {
        let mut files = write_unpoisoned(&self.files);
        let pages = files
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        let len = pages.len();
        let slot = pages
            .get_mut(index)
            .ok_or(StorageError::PageOutOfBounds { index, len })?;
        Ok(slot.take())
    }
}

impl BlockDevice for SimDevice {
    fn create_file(&self) -> FileId {
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        write_unpoisoned(&self.files).insert(id, Vec::new());
        id
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        read_unpoisoned(&self.files)
            .get(&file)
            .map(|pages| pages.len())
            .ok_or(StorageError::UnknownFile(file))
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        // Copy the page before taking the lock so writers hold it only for
        // the vector push.
        let stored = Arc::new(page.clone());
        let mut files = write_unpoisoned(&self.files);
        let pages = files
            .get_mut(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        self.stats.record(kind);
        pages.push(Some(stored));
        Ok(pages.len() - 1)
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let files = read_unpoisoned(&self.files);
        let pages = files.get(&file).ok_or(StorageError::UnknownFile(file))?;
        let arc = pages
            .get(index)
            .ok_or(StorageError::PageOutOfBounds {
                index,
                len: pages.len(),
            })?
            .clone()
            .ok_or(StorageError::DiscardedPage { file, index })?;
        self.stats.record(kind);
        // No page copy at all: the caller shares the resident page.
        Ok(arc)
    }

    /// One write lock instead of a read lock and then a write lock, and the
    /// page moves out of its slot with no reference-count round trip: SMJ
    /// at two workers ran 3–5 % faster than with the two calls (2 vCPUs,
    /// in-process A/B, 22–26 of 30 pairs).
    fn take_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let page = self
            .empty_slot(file, index)?
            .ok_or(StorageError::DiscardedPage { file, index })?;
        self.stats.record(kind);
        Ok(page)
    }

    fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
        // The page is freed (unless a reader still holds it) here, after
        // the lock is released.
        self.empty_slot(file, index).map(drop)
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        write_unpoisoned(&self.files)
            .remove(&file)
            .map(|_| ())
            .ok_or(StorageError::UnknownFile(file))
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordLayout, RecordRef};

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push_ref(RecordRef::new(k, &[0; 8])).unwrap());
        }
        p
    }

    #[test]
    fn sim_device_append_read_roundtrip() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        let idx = dev
            .append_page(f, &page_with(&[1, 2, 3]), IoKind::RandWrite)
            .unwrap();
        assert_eq!(idx, 0);
        let p = dev.read_page(f, 0, IoKind::SeqRead).unwrap();
        let keys: Vec<u64> = p.record_refs().map(|r| r.key()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(dev.file_pages(f).unwrap(), 1);
    }

    #[test]
    fn sim_device_counts_every_io() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        for _ in 0..4 {
            dev.append_page(f, &page_with(&[7]), IoKind::RandWrite)
                .unwrap();
        }
        for i in 0..4 {
            dev.read_page(f, i, IoKind::SeqRead).unwrap();
        }
        let s = dev.stats();
        assert_eq!(s.rand_writes, 4);
        assert_eq!(s.seq_reads, 4);
        assert_eq!(s.total(), 8);
        dev.reset_stats();
        assert_eq!(dev.stats().total(), 0);
    }

    #[test]
    fn sim_device_unknown_file_errors() {
        let dev = SimDevice::new();
        assert!(matches!(
            dev.file_pages(FileId(99)),
            Err(StorageError::UnknownFile(_))
        ));
        assert!(dev.delete_file(FileId(99)).is_err());
    }

    #[test]
    fn sim_device_out_of_bounds_read_errors() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        assert!(matches!(
            dev.read_page(f, 0, IoKind::SeqRead),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn sim_device_delete_releases_pages() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        assert_eq!(dev.resident_pages(), 1);
        dev.delete_file(f).unwrap();
        assert_eq!(dev.resident_pages(), 0);
        assert_eq!(dev.live_files(), 0);
    }

    #[test]
    fn sim_device_discarded_page_reads_as_a_typed_error() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        for k in 0..3 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        let held = dev.read_page(f, 1, IoKind::RandRead).unwrap();
        dev.reset_stats();
        dev.discard_page(f, 1).unwrap();
        assert_eq!(dev.stats().total(), 0, "discarding is not an I/O");
        assert_eq!(dev.resident_pages(), 2);
        assert_eq!(dev.file_pages(f).unwrap(), 3, "the file keeps its length");
        assert!(matches!(
            dev.read_page(f, 1, IoKind::RandRead),
            Err(StorageError::DiscardedPage { file, index: 1 }) if file == f
        ));
        assert_eq!(dev.stats().total(), 0, "the failed read is not counted");
        // A reader's reference outlives the device's copy; the other pages
        // are untouched, and discarding again changes nothing.
        assert_eq!(held.record_refs().map(|r| r.key()).collect::<Vec<_>>(), [1]);
        for k in [0, 2] {
            let p = dev.read_page(f, k, IoKind::RandRead).unwrap();
            assert_eq!(
                p.record_refs().map(|r| r.key()).collect::<Vec<_>>(),
                [k as u64]
            );
        }
        dev.discard_page(f, 1).unwrap();
        assert_eq!(dev.resident_pages(), 2);
        assert!(matches!(
            dev.discard_page(f, 3),
            Err(StorageError::PageOutOfBounds { index: 3, len: 3 })
        ));
        assert!(matches!(
            dev.discard_page(FileId(99), 0),
            Err(StorageError::UnknownFile(_))
        ));
        // Taking a page reads and discards it in one step; a second take
        // fails uncounted.
        let p = dev.take_page(f, 2, IoKind::RandRead).unwrap();
        assert_eq!(p.record_refs().map(|r| r.key()).collect::<Vec<_>>(), [2]);
        assert_eq!(dev.resident_pages(), 1);
        let reads = dev.stats().rand_reads;
        assert!(matches!(
            dev.take_page(f, 2, IoKind::RandRead),
            Err(StorageError::DiscardedPage { index: 2, .. })
        ));
        assert_eq!(dev.stats().rand_reads, reads);
        dev.delete_file(f).unwrap();
        assert_eq!(dev.resident_pages(), 0);
    }

    #[test]
    fn sim_device_failed_reads_are_not_counted() {
        let dev = SimDevice::new();
        let f = dev.create_file();
        let _ = dev.read_page(f, 3, IoKind::SeqRead);
        let _ = dev.read_page(FileId(99), 0, IoKind::SeqRead);
        assert_eq!(dev.stats().total(), 0);
    }

    #[test]
    fn sim_device_is_safe_under_concurrent_readers_and_writers() {
        let dev: DeviceRef = SimDevice::new_ref();
        let shared = dev.create_file();
        for k in 0..16u64 {
            dev.append_page(shared, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let dev = dev.clone();
                scope.spawn(move || {
                    let own = dev.create_file();
                    for i in 0..16 {
                        let p = dev.read_page(shared, i, IoKind::SeqRead).unwrap();
                        assert_eq!(p.record_refs().count(), 1);
                        dev.append_page(own, &page_with(&[t as u64]), IoKind::RandWrite)
                            .unwrap();
                    }
                    dev.delete_file(own).unwrap();
                });
            }
        });
        let s = dev.stats();
        assert_eq!(s.seq_reads, 4 * 16);
        assert_eq!(s.rand_writes, 4 * 16);
        assert_eq!(s.seq_writes, 16);
    }
}
