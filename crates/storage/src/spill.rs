//! Spill partitions: append-only record files with a one-page output buffer.
//!
//! Every partitioning join (GHJ, DHH, Histojoin, NOCAP) writes records that
//! cannot stay in memory into per-partition spill files. Each partition owns
//! exactly one output-buffer page (that is why a join with `m` disk
//! partitions needs `m` pages of its budget), and the buffer is flushed to
//! the device as a **random write** whenever it fills — this is the `μ`-
//! weighted cost in the paper's model. The page is allocated by the first
//! record buffered in it: a writer fed only whole pages
//! ([`PartitionWriter::append_full_page`]) holds none. Reading a partition
//! back during the probe phase is a sequential scan of its pages.
//!
//! **The spill write path.** A [`SpillSet`] is the one way a hash join
//! writes a set of partitions — R's and S's in the partition passes, and
//! the sub-partitions of a re-partitioned pair. It holds one spill file per
//! partition, created with its writer on the partition's first page.
//! Workers never push records into the writers. Each worker holds its own
//! [`LocalPages`] — one lazily allocated page per partition — fills them
//! without any synchronisation through [`SpillSet::push`], and takes a
//! partition's lock only to append a page that is already full: once per
//! `b` records instead of once per record, and never to copy into a page
//! another core is also writing. When the scan ends the coordinator
//! [`merge`](SpillSet::merge)s the workers' partial pages, in worker
//! order, through each partition's buffered writer.
//!
//! **Why the page count is one writer's.** Local pages follow
//! [`PartitionWriter`]'s lazy rule — a page is flushed only when a record
//! arrives and finds it full — so a worker that routed `n_w ≥ 1` records
//! to a partition has appended `⌈n_w / b⌉ − 1` pages and still holds
//! `1..=b` records. Pouring the `P = Σ pending` records through the shared
//! writer flushes `⌈P / b⌉ − 1` more and leaves `1..=b` buffered. Since
//! `n = b · Σ(⌈n_w / b⌉ − 1) + P`, the partition has exactly `⌈n / b⌉ − 1`
//! pages on the device after the merge and [`SpillSet::finish`] writes
//! exactly one more: the state one [`PartitionWriter`] pushed all `n`
//! records would be in, for any worker count and any split of the records
//! among workers. The joins take their partition-phase I/O snapshot after
//! the merge and finish S's set in the probe window, so the split of an S
//! partition's writes between the two windows is `⌈n / b⌉ − 1` / `1` at
//! every worker count. A partition that receives no record costs nothing:
//! no file, no page, and `finish` reports it as `None`.
//!
//! **What it costs.** Up to `workers × partitions touched` local pages of
//! physical memory outside the `BufferPool`. A [`PartitionWriter`]
//! allocates its output-buffer page on the first record *buffered* in it,
//! and during the scan the set's writers only ever see whole pages, so at
//! one worker — how the joins' sequential `run` executes — the scan holds
//! `m` physical output pages for `m` spill partitions, the `m` the model
//! charges (§4.1). The merge then moves each partition's tail from the
//! local page into the writer's, one partition at a time: `m` pages plus
//! the one being poured. At `T` workers it is up to `T × m`. Local pages
//! own no file, so a failed or cancelled run leaks nothing: the set's
//! writers delete their files on drop.

use std::sync::{Arc, Mutex};

use crate::device::{DeviceRef, FileId};
use crate::iostats::IoKind;
use crate::page::Page;
use crate::record::{Record, RecordLayout, RecordRef};
use crate::sync::{into_inner_unpoisoned, lock_unpoisoned};
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
/// handles to a caller on success ([`SpillSet::finish`]) instead call
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

/// One worker's private output pages of a [`SpillSet`], one per partition,
/// allocated on the partition's first record. They own no file: hand them
/// back to [`SpillSet::merge`] when the worker is done — records still in
/// them are not in any file until then.
pub struct LocalPages {
    pages: Vec<Option<Page>>,
}

/// One spill writer per partition, fed by worker-private pages (see the
/// module docs). A partition's writer and file are created on its first
/// page.
pub struct SpillSet {
    device: DeviceRef,
    layout: RecordLayout,
    page_size: usize,
    writers: Vec<Mutex<Option<PartitionWriter>>>,
}

impl SpillSet {
    /// Creates an empty set of `partitions` partitions of `layout` records.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        partitions: usize,
    ) -> Self {
        SpillSet {
            device,
            layout,
            page_size,
            writers: (0..partitions).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Fresh private pages for one worker.
    pub fn local(&self) -> LocalPages {
        LocalPages {
            pages: (0..self.writers.len()).map(|_| None).collect(),
        }
    }

    /// Appends `record` to partition `p` through the worker's `local`
    /// page. A page that is already full first goes to the partition's
    /// file under its lock ([`PartitionWriter`]'s lazy rule: a full page
    /// waits for the record that does not fit).
    pub fn push(&self, local: &mut LocalPages, p: usize, record: RecordRef<'_>) -> Result<()> {
        let page = local.pages[p].get_or_insert_with(|| Page::empty(self.page_size, self.layout));
        if !page.push_ref(record)? {
            self.writer(p, |writer| writer.append_full_page(page))?;
            page.clear();
            let pushed = page.push_ref(record)?;
            debug_assert!(pushed, "freshly cleared page must accept a record");
        }
        Ok(())
    }

    /// Pours the partial pages the workers hand back, in the order given
    /// (worker order), through each partition's buffered writer, releasing
    /// each page as it goes. Afterwards every partition is in exactly the
    /// state one `PartitionWriter` fed the same records would be in:
    /// `⌈n / b⌉ − 1` pages on the device, the last `1..=b` records buffered
    /// for [`finish`](Self::finish). Call it before the phase's I/O
    /// snapshot.
    pub fn merge(&self, locals: impl IntoIterator<Item = LocalPages>) -> Result<()> {
        for local in locals {
            for (p, page) in local.pages.into_iter().enumerate() {
                if let Some(page) = page {
                    self.writer(p, |writer| {
                        page.record_refs()
                            .try_for_each(|record| writer.push_ref(record))
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Runs `f` on partition `p`'s writer under its lock, creating the
    /// writer — and its file — first if this is the partition's first page.
    fn writer<T>(&self, p: usize, f: impl FnOnce(&mut PartitionWriter) -> T) -> T {
        let mut slot = lock_unpoisoned(&self.writers[p]);
        f(slot.get_or_insert_with(|| {
            PartitionWriter::new(
                self.device.clone(),
                self.layout,
                self.page_size,
                IoKind::RandWrite,
            )
        }))
    }

    /// Finishes every partition, yielding its handle, or `None` for a
    /// partition that received no record.
    ///
    /// Fail-clean: if any writer fails to finish, the handles produced so
    /// far are deleted (and the remaining unfinished writers delete their
    /// own files on drop) before the error is returned.
    pub fn finish(self) -> Result<Vec<Option<PartitionHandle>>> {
        let mut guard = SpillGuard::new();
        let mut out = Vec::with_capacity(self.writers.len());
        for slot in self.writers {
            let handle = into_inner_unpoisoned(slot)
                .map(PartitionWriter::finish)
                .transpose()?;
            guard.adopt_all(handle.clone());
            out.push(handle);
        }
        let _ = guard.release();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, SimDevice};
    use crate::fault::{FaultDevice, FaultKind, FaultSpec};

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
        assert_eq!(w.records(), 6);
        assert_eq!(
            dev.stats().rand_writes,
            1,
            "only the whole page is on the device"
        );
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

    /// Records per page of the spill-set test pages below.
    const B: usize = 4;
    const PAGE_SIZE: usize = 4 + B * 16;

    fn spill_set(device: DeviceRef, partitions: usize) -> SpillSet {
        SpillSet::new(device, layout(), PAGE_SIZE, partitions)
    }

    fn sorted_keys(handle: &PartitionHandle) -> Vec<u64> {
        let mut keys: Vec<u64> = handle
            .read_all(IoKind::SeqRead)
            .unwrap()
            .iter()
            .map(Record::key)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Feeds partition 0 of a one-partition set `split[w]` records from
    /// worker `w`'s local pages and checks every count against one
    /// sequential writer fed the same `n = Σ split` records.
    fn assert_page_arithmetic(split: &[usize]) {
        let n: usize = split.iter().sum();
        let key = |w: usize, i: usize| (w * 1_000_000 + i) as u64;

        let sequential = {
            let dev = SimDevice::new_ref();
            let mut writer =
                PartitionWriter::new(dev.clone(), layout(), PAGE_SIZE, IoKind::RandWrite);
            for (w, &count) in split.iter().enumerate() {
                for i in 0..count {
                    writer.push(&Record::with_fill(key(w, i), 8, 0)).unwrap();
                }
            }
            let before_finish = dev.stats().rand_writes;
            let handle = writer.finish().unwrap();
            (before_finish, dev.stats().rand_writes, handle)
        };

        let dev = SimDevice::new_ref();
        let set = spill_set(dev.clone(), 1);
        let locals: Vec<LocalPages> = split
            .iter()
            .enumerate()
            .map(|(w, &count)| {
                let mut local = set.local();
                for i in 0..count {
                    let rec = Record::with_fill(key(w, i), 8, 0);
                    set.push(&mut local, 0, rec.as_record_ref()).unwrap();
                }
                local
            })
            .collect();
        set.merge(locals).unwrap();
        let before_finish = dev.stats().rand_writes;
        let handle = set.finish().unwrap().remove(0);

        let expected_before = n.div_ceil(B).saturating_sub(1) as u64;
        assert_eq!(before_finish, expected_before, "before finish, {split:?}");
        assert_eq!(before_finish, sequential.0, "vs sequential, {split:?}");
        let after_finish = dev.stats().rand_writes;
        assert_eq!(
            after_finish,
            n.div_ceil(B) as u64,
            "after finish, {split:?}"
        );
        assert_eq!(after_finish, sequential.1, "vs sequential, {split:?}");
        match handle {
            None => assert_eq!(n, 0, "only an empty partition has no handle"),
            Some(handle) => {
                assert_eq!(handle.records(), sequential.2.records(), "{split:?}");
                assert_eq!(handle.pages(), sequential.2.pages(), "{split:?}");
                assert_eq!(
                    sorted_keys(&handle),
                    sorted_keys(&sequential.2),
                    "multiset, {split:?}"
                );
            }
        }
    }

    #[test]
    fn tail_merge_writes_the_sequential_page_count_for_every_split() {
        let (k, r) = (5usize, 3usize);
        for n in [0, 1, B - 1, B, B + 1, k * B, k * B + r] {
            for workers in [1usize, 2, 3, 8] {
                // Even, front-loaded (later workers route nothing) and
                // back-loaded one-record-each splits of the same n.
                let even: Vec<usize> = (0..workers)
                    .map(|w| n / workers + usize::from(w < n % workers))
                    .collect();
                let mut front = vec![0; workers];
                front[0] = n;
                let mut ragged = vec![0; workers];
                for slot in ragged.iter_mut().rev().take(n.min(workers - 1)) {
                    *slot = 1;
                }
                ragged[0] = n - ragged.iter().sum::<usize>();
                for split in [even, front, ragged] {
                    assert_eq!(split.iter().sum::<usize>(), n);
                    assert_page_arithmetic(&split);
                }
            }
        }
    }

    #[test]
    fn concurrent_pushes_write_the_sequential_page_count() {
        let dev = SimDevice::new_ref();
        let set = spill_set(dev.clone(), 1);
        let per_worker = 250usize;
        let locals: Vec<LocalPages> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|t| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut local = set.local();
                        for i in 0..per_worker {
                            let rec = Record::with_fill((t * 1000 + i) as u64, 8, 0);
                            set.push(&mut local, 0, rec.as_record_ref()).unwrap();
                        }
                        local
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        set.merge(locals).unwrap();
        let handle = set.finish().unwrap().remove(0).unwrap();
        assert_eq!(handle.records(), 4 * per_worker);
        // 1000 records at 4 per page: exactly what one sequential writer
        // would have flushed.
        assert_eq!(handle.pages(), (4 * per_worker).div_ceil(B));
        assert_eq!(dev.stats().rand_writes, handle.pages() as u64);
    }

    #[test]
    fn spill_set_round_trips_records() {
        let dev = SimDevice::new_ref();
        let set = spill_set(dev.clone(), 4);
        let mut local = set.local();
        for k in 0..100u64 {
            let rec = Record::with_fill(k, 8, 0);
            set.push(&mut local, (k % 4) as usize, rec.as_record_ref())
                .unwrap();
        }
        set.merge([local]).unwrap();
        let handles = set.finish().unwrap();
        for (p, handle) in handles.iter().enumerate() {
            let expected: Vec<u64> = (0..100).filter(|k| k % 4 == p as u64).collect();
            assert_eq!(sorted_keys(handle.as_ref().unwrap()), expected);
        }
        assert_eq!(dev.stats().rand_writes, 4 * 25usize.div_ceil(B) as u64);
    }

    #[test]
    fn a_partition_that_receives_no_record_creates_no_file() {
        let sim = Arc::new(SimDevice::new());
        let set = spill_set(sim.clone(), 3);
        assert_eq!(sim.live_files(), 0, "files come with the first page");
        // Two workers, each touching only one of partitions 0 and 2; the
        // merge skips partition 1 and every untouched page.
        let locals: Vec<LocalPages> = (0..2)
            .map(|w| {
                let mut local = set.local();
                for k in 0..(w * 6 + 1) as u64 {
                    let rec = Record::with_fill(k, 8, 0);
                    set.push(&mut local, w * 2, rec.as_record_ref()).unwrap();
                }
                local
            })
            .collect();
        set.merge(locals).unwrap();
        assert_eq!(sim.live_files(), 2, "no file for the empty partition");
        let handles = set.finish().unwrap();
        assert_eq!(handles[0].as_ref().unwrap().records(), 1);
        assert!(handles[1].is_none());
        assert_eq!(handles[2].as_ref().unwrap().records(), 7);
        // ⌈1 / 4⌉ + ⌈7 / 4⌉ pages.
        assert_eq!(sim.stats().rand_writes, 3);
    }

    #[test]
    fn an_append_error_in_one_worker_leaves_no_live_files() {
        let sim = Arc::new(SimDevice::new());
        // The third full-page append fails, and so does every one after it.
        let faulty = FaultDevice::new_arc(
            sim.clone(),
            vec![FaultSpec::any(FaultKind::PersistentError)
                .appends()
                .after(2)],
        );
        faulty.arm();
        let set = spill_set(faulty, 3);
        let results: Vec<Result<LocalPages>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3u64)
                .map(|w| {
                    let set = &set;
                    scope.spawn(move || {
                        let mut local = set.local();
                        for k in 0..200u64 {
                            let rec = Record::with_fill(k + w, 8, 0);
                            set.push(&mut local, (k % 3) as usize, rec.as_record_ref())?;
                        }
                        Ok(local)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(
            results.iter().any(Result::is_err),
            "the injected append error must surface"
        );
        assert!(sim.live_files() > 0, "pages had been appended");
        drop(results);
        drop(set);
        assert_eq!(sim.live_files(), 0, "unfinished writers delete their files");
        assert_eq!(sim.resident_pages(), 0);
    }
}
