//! Spill partitions: append-only record files with a one-page output buffer.
//!
//! Every partitioning join (GHJ, DHH, Histojoin, NOCAP) writes records that
//! cannot stay in memory into per-partition spill files. Each partition owns
//! exactly one output-buffer page (that is why a join with `m` disk
//! partitions needs `m` pages of its budget), and the buffer is flushed to
//! the device as a **random write** whenever it fills — this is the `μ`-
//! weighted cost in the paper's model. The page is allocated by the first
//! record buffered in it: a writer fed only whole pages
//! ([`PartitionWriter::append_full_page`], the parallel write path's scan)
//! holds none. Reading a partition back during the probe phase is a
//! sequential scan of its pages.

use std::sync::Arc;

use crate::device::{DeviceRef, FileId};
use crate::iostats::IoKind;
use crate::page::Page;
use crate::record::{Record, RecordLayout, RecordRef};
use crate::Result;

/// Writer for one spill partition.
///
/// The writer owns its spill file until [`finish`](Self::finish) hands it
/// over as a [`PartitionHandle`]: dropping an unfinished writer (e.g. while
/// unwinding out of a failed partitioning phase) deletes the file, so error
/// paths can never leak half-written partitions.
pub struct PartitionWriter {
    device: DeviceRef,
    file: FileId,
    layout: RecordLayout,
    page_size: usize,
    /// The output buffer, absent until the first buffered record.
    page: Option<Page>,
    write_kind: IoKind,
    records: usize,
    pages: usize,
    finished: bool,
}

impl PartitionWriter {
    /// Creates a new spill partition on `device`.
    ///
    /// `write_kind` is almost always [`IoKind::RandWrite`] (partition output
    /// buffers are flushed in arbitrary interleaved order); the external
    /// sorter reuses this type with [`IoKind::SeqWrite`] for run files.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
    ) -> Self {
        let file = device.create_file();
        PartitionWriter {
            device,
            file,
            layout,
            page_size,
            page: None,
            write_kind,
            records: 0,
            pages: 0,
            finished: false,
        }
    }

    /// Appends a record, flushing the output buffer to the device if full.
    pub fn push(&mut self, record: &Record) -> Result<()> {
        self.push_ref(record.as_record_ref())
    }

    /// Appends a borrowed record (no allocation), flushing the output buffer
    /// to the device if full. This is the partition-routing hot path: one
    /// key store plus one payload `memcpy` into the buffer page.
    pub fn push_ref(&mut self, record: RecordRef<'_>) -> Result<()> {
        let page = self
            .page
            .get_or_insert_with(|| Page::empty(self.page_size, self.layout));
        if !page.push_ref(record)? {
            self.device.append_page(self.file, page, self.write_kind)?;
            self.pages += 1;
            page.clear();
            let pushed = page.push_ref(record)?;
            debug_assert!(pushed, "freshly flushed page must accept a record");
        }
        self.records += 1;
        Ok(())
    }

    /// Appends an already-full page straight to the spill file, bypassing
    /// the output buffer — the once-per-page entry point of the parallel
    /// write path, whose workers fill private pages and only meet at the
    /// partition's file. The buffered page (and therefore what
    /// [`finish`](Self::finish) still has to flush) is untouched.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not full or holds records of another size: a
    /// partial page in the middle of the file would break the `⌈n / b⌉`
    /// page count every reader and the cost model rely on.
    pub fn append_full_page(&mut self, page: &Page) -> Result<()> {
        assert!(
            page.is_full() && page.record_size() == self.layout.record_bytes(),
            "append_full_page needs a full page of this partition's records"
        );
        self.device.append_page(self.file, page, self.write_kind)?;
        self.pages += 1;
        self.records += page.record_count();
        Ok(())
    }

    /// Number of records appended so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Number of pages already flushed to the device (excludes the partial
    /// buffer page).
    pub fn flushed_pages(&self) -> usize {
        self.pages
    }

    /// Flushes the partial output buffer and returns a handle to the
    /// finished partition.
    pub fn finish(mut self) -> Result<PartitionHandle> {
        if let Some(page) = self.page.take().filter(|page| !page.is_empty()) {
            self.device.append_page(self.file, &page, self.write_kind)?;
            self.pages += 1;
        }
        self.finished = true;
        Ok(PartitionHandle {
            device: self.device.clone(),
            file: self.file,
            pages: self.pages,
            records: self.records,
        })
    }
}

impl Drop for PartitionWriter {
    fn drop(&mut self) {
        if !self.finished {
            // Best effort: a failing delete during unwind must not panic.
            let _ = self.device.delete_file(self.file);
        }
    }
}

/// A finished spill partition (or sorted run) ready to be read back.
#[derive(Clone)]
pub struct PartitionHandle {
    device: DeviceRef,
    file: FileId,
    pages: usize,
    records: usize,
}

impl PartitionHandle {
    /// The device this partition lives on.
    pub fn device(&self) -> &DeviceRef {
        &self.device
    }

    /// Number of pages in the partition.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Number of records in the partition.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Returns `true` if the partition holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Opens a reader over the partition's records.
    ///
    /// `read_kind` is [`IoKind::SeqRead`] for the hash-join probe phase and
    /// [`IoKind::RandRead`] for multiway-merge consumers that interleave
    /// reads across many runs.
    pub fn read(&self, read_kind: IoKind) -> PartitionReader {
        PartitionReader {
            handle: self.clone(),
            read_kind,
            next_page: 0,
            current: None,
            current_pos: 0,
        }
    }

    /// Reads page `index` of the partition (one I/O of `read_kind`).
    pub(crate) fn read_page(&self, index: usize, read_kind: IoKind) -> Result<Arc<Page>> {
        self.device.read_page(self.file, index, read_kind)
    }

    /// Reads all records into memory (counts the page reads).
    pub fn read_all(&self, read_kind: IoKind) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.records);
        for r in self.read(read_kind) {
            out.push(r?);
        }
        Ok(out)
    }

    /// Deletes the partition's pages from the device.
    pub fn delete(self) -> Result<()> {
        self.device.delete_file(self.file)
    }
}

impl std::fmt::Debug for PartitionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionHandle")
            .field("file", &self.file)
            .field("pages", &self.pages)
            .field("records", &self.records)
            .finish()
    }
}

/// Iterator over the records of a finished partition.
///
/// Like [`RelationScan`](crate::RelationScan), two consumption modes share
/// one I/O accounting: [`next_page`](Self::next_page) for the zero-copy
/// page-at-a-time loops of the probe phase, and the [`Iterator`] impl
/// yielding owned `Result<Record>` for API edges.
pub struct PartitionReader {
    handle: PartitionHandle,
    read_kind: IoKind,
    next_page: usize,
    current: Option<Arc<Page>>,
    current_pos: usize,
}

impl PartitionReader {
    /// Reads the next page of the partition (one I/O of the reader's kind),
    /// or `None` when exhausted. Iterate the returned page with
    /// [`Page::record_refs`](crate::Page::record_refs) for zero-copy access.
    pub fn next_page(&mut self) -> Result<Option<Arc<Page>>> {
        if self.next_page >= self.handle.pages {
            return Ok(None);
        }
        let page = self.handle.read_page(self.next_page, self.read_kind)?;
        self.next_page += 1;
        Ok(Some(page))
    }

    fn load_next_page(&mut self) -> Result<bool> {
        match self.next_page()? {
            Some(page) => {
                self.current = Some(page);
                self.current_pos = 0;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

impl Iterator for PartitionReader {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(page) = &self.current {
                if self.current_pos < page.record_count() {
                    let rec = page.get(self.current_pos);
                    self.current_pos += 1;
                    return Some(rec);
                }
            }
            match self.load_next_page() {
                Ok(true) => continue,
                Ok(false) => return None,
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// RAII owner of finished spill partitions: every adopted
/// [`PartitionHandle`] is deleted when the guard drops, whether the scope
/// exits normally or by error/unwind.
///
/// Executors adopt each handle the moment it is finished, so no error path
/// between partitioning and probe can leak spill files. Producers that hand
/// handles to a caller on success (stagers, writer sets) instead call
/// [`release`](Self::release) once all handles exist, transferring cleanup
/// responsibility upward.
///
/// Deletion is not an I/O in the paper's cost model, so deferring it to
/// end-of-scope changes no modeled counter.
#[derive(Default)]
pub struct SpillGuard {
    handles: Vec<PartitionHandle>,
}

impl SpillGuard {
    /// Creates an empty guard.
    pub fn new() -> Self {
        SpillGuard::default()
    }

    /// Adopts one handle for end-of-scope deletion.
    pub fn adopt(&mut self, handle: PartitionHandle) {
        self.handles.push(handle);
    }

    /// Adopts every handle in the iterator.
    pub fn adopt_all<I: IntoIterator<Item = PartitionHandle>>(&mut self, handles: I) {
        self.handles.extend(handles);
    }

    /// Number of handles currently guarded.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Returns `true` if no handles are guarded.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Disarms the guard and returns the handles without deleting them —
    /// the success path of producers that transfer ownership to the caller.
    pub fn release(mut self) -> Vec<PartitionHandle> {
        std::mem::take(&mut self.handles)
    }
}

impl Drop for SpillGuard {
    fn drop(&mut self) {
        for handle in self.handles.drain(..) {
            // Best effort: the file may be shared with an already-deleted
            // clone, and cleanup during unwind must not panic.
            let _ = handle.delete();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;

    fn layout() -> RecordLayout {
        RecordLayout::new(8)
    }

    #[test]
    fn write_read_roundtrip() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev, layout(), 128, IoKind::RandWrite);
        for k in 0..100u64 {
            w.push(&Record::with_fill(k, 8, 0)).unwrap();
        }
        let handle = w.finish().unwrap();
        assert_eq!(handle.records(), 100);
        let keys: Vec<u64> = handle
            .read(IoKind::SeqRead)
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(keys, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn partition_writes_are_random_writes() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        for k in 0..64u64 {
            w.push(&Record::with_fill(k, 8, 0)).unwrap();
        }
        let handle = w.finish().unwrap();
        assert_eq!(dev.stats().rand_writes as usize, handle.pages());
        assert_eq!(dev.stats().seq_writes, 0);
    }

    #[test]
    fn ref_write_and_page_read_match_the_owned_path() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        for k in 0..100u64 {
            let rec = Record::with_fill(k, 8, 3);
            w.push_ref(rec.as_record_ref()).unwrap();
        }
        let handle = w.finish().unwrap();
        assert_eq!(handle.records(), 100);
        dev.reset_stats();
        let mut keys = Vec::new();
        let mut reader = handle.read(IoKind::SeqRead);
        while let Some(page) = reader.next_page().unwrap() {
            for rec in page.record_refs() {
                keys.push(rec.key());
            }
        }
        assert_eq!(keys, (0..100).collect::<Vec<u64>>());
        assert_eq!(dev.stats().seq_reads as usize, handle.pages());
    }

    #[test]
    fn page_count_matches_record_math() {
        let dev = SimDevice::new_ref();
        let page_size = 4 + 4 * 16; // header + 4 records of 16 bytes
        let mut w = PartitionWriter::new(dev, layout(), page_size, IoKind::RandWrite);
        for k in 0..10u64 {
            w.push(&Record::with_fill(k, 8, 0)).unwrap();
        }
        let handle = w.finish().unwrap();
        assert_eq!(handle.pages(), 3); // ⌈10 / 4⌉
    }

    #[test]
    fn full_page_appends_bypass_the_buffer_and_keep_the_counts() {
        let dev = SimDevice::new_ref();
        let page_size = 4 + 4 * 16; // 4 records per page
        let mut w = PartitionWriter::new(dev.clone(), layout(), page_size, IoKind::RandWrite);
        let mut full = Page::empty(page_size, layout());
        for k in 100..104u64 {
            assert!(full.push(&Record::with_fill(k, 8, 0)).unwrap());
        }
        w.push(&Record::with_fill(1, 8, 0)).unwrap();
        w.append_full_page(&full).unwrap();
        w.push(&Record::with_fill(2, 8, 0)).unwrap();
        assert_eq!((w.records(), w.flushed_pages()), (6, 1));
        let handle = w.finish().unwrap();
        assert_eq!((handle.records(), handle.pages()), (6, 2));
        assert_eq!(dev.stats().rand_writes, 2);
        let keys: Vec<u64> = handle
            .read(IoKind::SeqRead)
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(keys, vec![100, 101, 102, 103, 1, 2]);
    }

    #[test]
    fn the_buffer_page_is_allocated_by_the_first_buffered_record() {
        let dev = SimDevice::new_ref();
        let page_size = 4 + 4 * 16;
        let mut w = PartitionWriter::new(dev, layout(), page_size, IoKind::RandWrite);
        let mut full = Page::empty(page_size, layout());
        for k in 0..4u64 {
            assert!(full.push(&Record::with_fill(k, 8, 0)).unwrap());
        }
        w.append_full_page(&full).unwrap();
        assert!(w.page.is_none(), "whole pages need no buffer");
        w.push(&Record::with_fill(9, 8, 0)).unwrap();
        assert!(w.page.is_some());
        let handle = w.finish().unwrap();
        assert_eq!((handle.records(), handle.pages()), (5, 2));
    }

    #[test]
    #[should_panic(expected = "full page")]
    fn appending_a_partial_page_is_a_logic_error() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev, layout(), 128, IoKind::RandWrite);
        let mut partial = Page::empty(128, layout());
        partial.push(&Record::with_fill(1, 8, 0)).unwrap();
        let _ = w.append_full_page(&partial);
    }

    #[test]
    fn empty_partition_has_no_pages() {
        let dev = SimDevice::new_ref();
        let w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        let handle = w.finish().unwrap();
        assert!(handle.is_empty());
        assert_eq!(handle.pages(), 0);
        assert_eq!(dev.stats().total(), 0);
        assert_eq!(handle.read_all(IoKind::SeqRead).unwrap().len(), 0);
    }

    #[test]
    fn reading_counts_requested_kind() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        for k in 0..32u64 {
            w.push(&Record::with_fill(k, 8, 0)).unwrap();
        }
        let handle = w.finish().unwrap();
        dev.reset_stats();
        let _ = handle.read_all(IoKind::RandRead).unwrap();
        assert_eq!(dev.stats().rand_reads as usize, handle.pages());
        assert_eq!(dev.stats().seq_reads, 0);
    }

    #[test]
    fn dropping_an_unfinished_writer_deletes_its_file() {
        let sim = std::sync::Arc::new(SimDevice::new());
        let dev: crate::device::DeviceRef = sim.clone();
        {
            let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
            for k in 0..64u64 {
                w.push(&Record::with_fill(k, 8, 0)).unwrap();
            }
            assert_eq!(sim.live_files(), 1);
        }
        assert_eq!(sim.live_files(), 0, "unfinished writer must clean up");
        assert_eq!(sim.resident_pages(), 0);
        // A finished writer hands ownership to the handle instead.
        let mut w = PartitionWriter::new(dev, layout(), 128, IoKind::RandWrite);
        w.push(&Record::with_fill(1, 8, 0)).unwrap();
        let handle = w.finish().unwrap();
        assert_eq!(sim.live_files(), 1);
        handle.delete().unwrap();
        assert_eq!(sim.live_files(), 0);
    }

    #[test]
    fn spill_guard_deletes_on_drop_and_release_disarms() {
        let sim = std::sync::Arc::new(SimDevice::new());
        let dev: crate::device::DeviceRef = sim.clone();
        let make = |dev: &crate::device::DeviceRef| {
            let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
            w.push(&Record::with_fill(1, 8, 0)).unwrap();
            w.finish().unwrap()
        };
        {
            let mut guard = SpillGuard::new();
            guard.adopt(make(&dev));
            guard.adopt_all([make(&dev), make(&dev)]);
            assert_eq!(guard.len(), 3);
            assert_eq!(sim.live_files(), 3);
        }
        assert_eq!(sim.live_files(), 0, "guard must delete on drop");

        let mut guard = SpillGuard::new();
        guard.adopt(make(&dev));
        let handles = guard.release();
        assert_eq!(sim.live_files(), 1, "released handles survive the guard");
        for h in handles {
            h.delete().unwrap();
        }
        assert_eq!(sim.live_files(), 0);
    }

    #[test]
    fn delete_releases_file() {
        let dev = SimDevice::new_ref();
        let mut w = PartitionWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        w.push(&Record::with_fill(1, 8, 0)).unwrap();
        let handle = w.finish().unwrap();
        handle.clone().delete().unwrap();
        // The file is gone: a second delete reports an unknown file.
        assert!(handle.delete().is_err());
    }
}
