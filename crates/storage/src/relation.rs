//! Stored relations: append-only files of fixed-width record pages.
//!
//! A [`Relation`] is every record file the joins keep on a device: a join
//! input (the paper's R or S, `‖R‖` pages), a spill partition (the `R_j` /
//! `S_j` of a partition-wise join, §3.1.1) and the file of a sorted run.
//! All of them are written by one [`RelationWriter`] and read back by one
//! [`RelationScan`], which performs page-granular reads so that scanning a
//! relation costs exactly `‖R‖` read I/Os — the same unit the paper's cost
//! model uses. What differs between the three is only the kind each side
//! declares: a bulk load or a sorted run writes sequentially, a spill
//! partition's output buffer randomly; a scan reads sequentially, a
//! multiway merge randomly.
//!
//! Bulk loading counts as sequential writes on the device. Experiments that
//! only want to measure the *join*'s I/O (as the paper does — both input
//! relations pre-exist on disk) should call
//! [`BlockDevice::reset_stats`](crate::BlockDevice::reset_stats) after
//! loading; the experiment harness in `nocap-bench` does exactly that.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::device::{DeviceRef, FileId};
use crate::iostats::IoKind;
use crate::page::{records_per_page, Page};
use crate::record::{RecordLayout, RecordRef};
use crate::Result;

/// The device file of one relation, deleted when its last handle drops.
///
/// A [`RelationWriter`] holds it from the file's creation and
/// [`finish`](RelationWriter::finish) shares it among the relation's
/// clones, scans and run slices, so a file is deleted exactly when nothing
/// can read it any more — on the success path and on every error or unwind
/// path alike — unless [`Relation::delete`] deleted it first. Deletion is
/// not an I/O in the paper's cost model, so when it happens changes no
/// modeled counter.
struct OwnedFile {
    device: DeviceRef,
    file: FileId,
    deleted: AtomicBool,
}

impl OwnedFile {
    fn create(device: DeviceRef) -> Self {
        let file = device.create_file();
        OwnedFile {
            device,
            file,
            deleted: AtomicBool::new(false),
        }
    }

    fn append(&self, page: &Page, kind: IoKind) -> Result<()> {
        self.device.append_page(self.file, page, kind).map(drop)
    }

    /// Deletes the file now; the drop then deletes nothing.
    fn delete(&self) -> Result<()> {
        self.deleted.store(true, Ordering::Relaxed);
        self.device.delete_file(self.file)
    }
}

impl Drop for OwnedFile {
    fn drop(&mut self) {
        if !*self.deleted.get_mut() {
            // Best effort: a failing delete during unwind must not panic.
            let _ = self.device.delete_file(self.file);
        }
    }
}

/// A stored relation: metadata plus the device file holding its pages.
///
/// Every relation owns its file: clones share it, and dropping the last
/// handle — relation, [`RelationScan`] or
/// [`RunSlice`](crate::sort::RunSlice) — deletes it.
#[derive(Clone)]
pub struct Relation {
    file: Arc<OwnedFile>,
    layout: RecordLayout,
    page_size: usize,
    num_records: usize,
    num_pages: usize,
}

impl Relation {
    /// Bulk-loads a relation from borrowed records through one
    /// [`RelationWriter`], one sequential write per page and no allocation
    /// per record.
    ///
    /// All records must conform to `layout`; pages are filled densely so the
    /// resulting page count is `⌈n / b⌉` where `b` is the per-page record
    /// capacity. A record of another width fails the load with
    /// [`StorageError::RecordTooLarge`](crate::StorageError::RecordTooLarge).
    /// A load that fails part-way deletes what it wrote.
    pub fn bulk_load<'a>(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> Result<Relation> {
        let mut writer = RelationWriter::new(device, layout, page_size, IoKind::SeqWrite);
        for r in records {
            writer.push_ref(r)?;
        }
        writer.finish()
    }

    /// The device this relation lives on.
    pub fn device(&self) -> &DeviceRef {
        &self.file.device
    }

    /// The device file holding the relation's pages.
    pub fn file(&self) -> FileId {
        self.file.file
    }

    /// Record layout of the relation.
    pub fn layout(&self) -> RecordLayout {
        self.layout
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of records (the paper's `n_R` / `n_S`).
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Number of pages (the paper's `‖R‖` / `‖S‖`).
    pub fn num_pages(&self) -> usize {
        self.num_pages
    }

    /// Returns `true` if the relation holds no records.
    pub fn is_empty(&self) -> bool {
        self.num_records == 0
    }

    /// Records per page (the paper's `b_R` / `b_S`).
    pub fn records_per_page(&self) -> usize {
        records_per_page(self.page_size, self.layout.record_bytes())
    }

    /// Sequentially scans the relation, counting one sequential read per page.
    pub fn scan(&self) -> RelationScan {
        self.scan_range(0..self.num_pages)
    }

    /// Scans only the pages in `pages` (clamped to the relation's extent),
    /// counting one sequential read per page visited.
    ///
    /// This is the morsel interface of the parallel executor: workers split
    /// `0..num_pages()` into contiguous ranges and scan them concurrently,
    /// so together they read every page exactly once — the same `‖R‖`
    /// sequential reads the single-threaded scan performs.
    pub fn scan_range(&self, pages: std::ops::Range<usize>) -> RelationScan {
        let end = pages.end.min(self.num_pages);
        RelationScan {
            relation: self.clone(),
            kind: IoKind::SeqRead,
            next_page: pages.start.min(end),
            end_page: end,
        }
    }

    /// Scans the whole relation, counting one I/O of `kind` per page:
    /// [`IoKind::RandRead`] for a consumer that interleaves its reads with
    /// other files' (a multiway merge).
    pub fn read(&self, kind: IoKind) -> RelationScan {
        RelationScan {
            kind,
            ..self.scan()
        }
    }

    /// Reads page `index` (one I/O of `kind`).
    pub(crate) fn read_page(&self, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        self.device().read_page(self.file(), index, kind)
    }

    /// Reads page `index` for the last time (one I/O of `kind`) and
    /// discards it ([`BlockDevice::take_page`](crate::BlockDevice::take_page)).
    pub(crate) fn take_page(&self, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        self.device().take_page(self.file(), index, kind)
    }

    /// Deletes the relation's file from the device now, whatever other
    /// handles share it, and returns the device's error if it fails; the
    /// file is not deleted again when the last handle drops.
    pub fn delete(self) -> Result<()> {
        self.file.delete()
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("file", &self.file())
            .field("num_records", &self.num_records)
            .field("num_pages", &self.num_pages)
            .field("record_bytes", &self.layout.record_bytes())
            .field("page_size", &self.page_size)
            .finish()
    }
}

/// The writer of every [`Relation`]: appends records through a one-page
/// output buffer, flushing it as one write of the writer's kind whenever it
/// fills.
///
/// The buffer page is allocated by the first record buffered in it: a
/// writer fed only whole pages ([`append_full_page`](Self::append_full_page))
/// holds none. The writer owns its file until [`finish`](Self::finish)
/// hands it over to the [`Relation`]: dropping an unfinished writer (e.g.
/// while unwinding out of a failed partitioning phase or bulk load) deletes
/// the file, so error paths can never leak half-written relations.
pub struct RelationWriter {
    file: OwnedFile,
    layout: RecordLayout,
    page_size: usize,
    /// The output buffer, absent until the first buffered record.
    page: Option<Page>,
    write_kind: IoKind,
    num_records: usize,
    num_pages: usize,
}

impl RelationWriter {
    /// Creates a new, empty relation file on `device`.
    ///
    /// `write_kind` is [`IoKind::SeqWrite`] for bulk loads and sorted runs
    /// and [`IoKind::RandWrite`] for spill partitions, whose output buffers
    /// are flushed in arbitrary interleaved order.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
    ) -> Self {
        RelationWriter {
            file: OwnedFile::create(device),
            layout,
            page_size,
            page: None,
            write_kind,
            num_records: 0,
            num_pages: 0,
        }
    }

    /// Appends a record (no allocation), flushing the output buffer to the
    /// device if full. This is the partition-routing hot path: one key
    /// store plus one payload `memcpy` into the buffer page.
    pub fn push_ref(&mut self, record: RecordRef<'_>) -> Result<()> {
        let page = self
            .page
            .get_or_insert_with(|| Page::empty(self.page_size, self.layout));
        if !page.push_ref(record)? {
            self.file.append(page, self.write_kind)?;
            self.num_pages += 1;
            page.clear();
            let pushed = page.push_ref(record)?;
            debug_assert!(pushed, "freshly flushed page must accept a record");
        }
        self.num_records += 1;
        Ok(())
    }

    /// Appends an already-full page straight to the file, bypassing the
    /// output buffer — the once-per-page entry point of the parallel spill
    /// path, whose workers fill private pages and only meet at the
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
            "append_full_page needs a full page of this relation's records"
        );
        self.file.append(page, self.write_kind)?;
        self.num_pages += 1;
        self.num_records += page.record_count();
        Ok(())
    }

    /// Flushes the partial output buffer and returns the finished relation.
    pub fn finish(mut self) -> Result<Relation> {
        if let Some(page) = self.page.take().filter(|page| !page.is_empty()) {
            self.file.append(&page, self.write_kind)?;
            self.num_pages += 1;
        }
        Ok(Relation {
            file: Arc::new(self.file),
            layout: self.layout,
            page_size: self.page_size,
            num_records: self.num_records,
            num_pages: self.num_pages,
        })
    }
}

/// A page cursor over a stored relation: one I/O of the scan's kind per
/// page, each page read exactly once.
///
/// [`next_page`](Self::next_page) hands back each page; iterate it with
/// [`Page::record_refs`] for the zero-copy record view.
pub struct RelationScan {
    relation: Relation,
    kind: IoKind,
    next_page: usize,
    end_page: usize,
}

impl RelationScan {
    /// Reads the next page of the scan (one I/O of the scan's kind), or
    /// `None` when the page range is exhausted. The returned page is owned
    /// by the caller; iterate it with [`Page::record_refs`] for the
    /// zero-copy record view.
    pub fn next_page(&mut self) -> Result<Option<Arc<Page>>> {
        if self.next_page >= self.end_page {
            return Ok(None);
        }
        let page = self.relation.read_page(self.next_page, self.kind)?;
        self.next_page += 1;
        Ok(Some(page))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::device::{BlockDevice, SimDevice};
    use crate::iostats::IoStats;
    use std::sync::atomic::AtomicUsize;

    /// Records `0..n` of `layout()`, every payload byte 1.
    fn records(n: usize) -> impl Iterator<Item = RecordRef<'static>> {
        (0..n as u64).map(|k| RecordRef::new(k, &[1; 8]))
    }

    /// The keys a scan reads, in scan order.
    pub(crate) fn keys(mut scan: RelationScan) -> Vec<u64> {
        let mut keys = Vec::new();
        while let Some(page) = scan.next_page().unwrap() {
            keys.extend(page.record_refs().map(|rec| rec.key()));
        }
        keys
    }

    fn layout() -> RecordLayout {
        RecordLayout::new(8)
    }

    /// 128-byte pages hold 7 records of 16 bytes (4-byte header).
    fn small(dev: &DeviceRef, n: usize) -> Relation {
        Relation::bulk_load(dev.clone(), layout(), 128, records(n)).unwrap()
    }

    #[test]
    fn bulk_load_page_count_matches_formula() {
        let dev = SimDevice::new_ref();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(24),
            4096,
            (0..1000).map(|k| RecordRef::new(k, &[1; 24])),
        )
        .unwrap();
        assert_eq!(rel.num_pages(), 1000usize.div_ceil(rel.records_per_page()));
        assert_eq!(rel.num_records(), 1000);
        // The spill path's writer: ⌈10 / 4⌉ pages of 4 records.
        let page_size = 4 + 4 * 16;
        let mut w = RelationWriter::new(dev, layout(), page_size, IoKind::RandWrite);
        for r in records(10) {
            w.push_ref(r).unwrap();
        }
        assert_eq!(w.finish().unwrap().num_pages(), 3);
    }

    #[test]
    fn scan_returns_records_in_load_order() {
        let dev = SimDevice::new_ref();
        let loaded = small(&dev, 100);
        let mut w = RelationWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        for r in records(100) {
            w.push_ref(r).unwrap();
        }
        let spilled = w.finish().unwrap();
        for rel in [loaded, spilled] {
            assert_eq!(rel.num_records(), 100);
            dev.reset_stats();
            assert_eq!(keys(rel.scan()), (0..100).collect::<Vec<u64>>());
            assert_eq!(dev.stats().seq_reads as usize, rel.num_pages());
            assert_eq!(dev.stats().writes(), 0);
        }
    }

    #[test]
    fn writes_count_the_writers_kind() {
        for kind in [IoKind::SeqWrite, IoKind::RandWrite] {
            let dev = SimDevice::new_ref();
            let mut w = RelationWriter::new(dev.clone(), layout(), 128, kind);
            for r in records(64) {
                w.push_ref(r).unwrap();
            }
            let n = w.finish().unwrap().num_pages() as u64;
            let io = dev.stats();
            let expected = match kind {
                IoKind::SeqWrite => (n, 0),
                _ => (0, n),
            };
            assert_eq!((io.seq_writes, io.rand_writes), expected, "{kind:?}");
            assert_eq!(io.total(), n, "{kind:?}");
        }
        // A bulk load is the sequential case.
        let dev = SimDevice::new_ref();
        let rel = small(&dev, 64);
        assert_eq!(dev.stats().seq_writes as usize, rel.num_pages());
    }

    #[test]
    fn reads_count_the_scans_kind() {
        let dev = SimDevice::new_ref();
        let rel = small(&dev, 64);
        dev.reset_stats();
        assert_eq!(keys(rel.scan()).len(), 64);
        assert_eq!(dev.stats().seq_reads as usize, rel.num_pages());
        assert_eq!(dev.stats().total(), dev.stats().seq_reads);
        dev.reset_stats();
        assert_eq!(keys(rel.read(IoKind::RandRead)).len(), 64);
        assert_eq!(dev.stats().rand_reads as usize, rel.num_pages());
        assert_eq!(dev.stats().total(), dev.stats().rand_reads);
    }

    #[test]
    fn scan_range_covers_exactly_the_requested_pages() {
        let dev = SimDevice::new_ref();
        let rel = small(&dev, 50);
        let per_page = rel.records_per_page();
        dev.reset_stats();
        let expected: Vec<u64> = (per_page as u64..3 * per_page as u64).collect();
        assert_eq!(keys(rel.scan_range(1..3)), expected);
        assert_eq!(dev.stats().seq_reads, 2);
        // Out-of-range ends clamp instead of erroring.
        let tail = keys(rel.scan_range(rel.num_pages() - 1..rel.num_pages() + 10));
        assert_eq!(*tail.last().unwrap(), 49);
        // Sharded ranges together visit every record exactly once.
        let n = rel.num_pages();
        let mid = n / 2;
        let mut all = keys(rel.scan_range(0..mid));
        all.extend(keys(rel.scan_range(mid..n)));
        assert_eq!(all, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn empty_relation_is_legal() {
        let dev = SimDevice::new_ref();
        let loaded = small(&dev, 0);
        let written = RelationWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite)
            .finish()
            .unwrap();
        assert_eq!(dev.stats().total(), 0);
        for rel in [loaded, written] {
            assert!(rel.is_empty());
            assert_eq!((rel.num_pages(), rel.num_records()), (0, 0));
            assert!(keys(rel.scan()).is_empty());
        }
    }

    #[test]
    fn a_failed_bulk_load_deletes_what_it_wrote() {
        let sim = Arc::new(SimDevice::new());
        let dev: DeviceRef = sim.clone();
        let kept = small(&dev, 20);
        assert_eq!(sim.live_files(), 1);
        // Five full pages go out before the 16-byte record arrives.
        let wide = RecordRef::new(99, &[0; 16]);
        let err = Relation::bulk_load(dev.clone(), layout(), 128, records(40).chain([wide]));
        assert!(matches!(
            err,
            Err(crate::StorageError::RecordTooLarge {
                record_bytes: 24,
                page_capacity: 16
            })
        ));
        assert!(sim.stats().seq_writes as usize > kept.num_pages());
        assert_eq!(sim.live_files(), 1, "the failed load's file is gone");
    }

    #[test]
    fn delete_removes_pages_from_device() {
        let dev = SimDevice::new_ref();
        let rel = small(&dev, 64);
        let file = rel.file();
        assert!(dev.file_pages(file).is_ok());
        rel.clone().delete().unwrap();
        assert!(dev.file_pages(file).is_err());
        // The file is gone: a second delete reports an unknown file.
        assert!(rel.delete().is_err());
    }

    /// A `SimDevice` that counts `delete_file` calls and can fail them.
    #[derive(Default)]
    struct DeleteCounter {
        sim: SimDevice,
        deletes: AtomicUsize,
        fail: AtomicBool,
    }

    impl BlockDevice for DeleteCounter {
        fn create_file(&self) -> FileId {
            self.sim.create_file()
        }
        fn file_pages(&self, file: FileId) -> Result<usize> {
            self.sim.file_pages(file)
        }
        fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
            self.sim.append_page(file, page, kind)
        }
        fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
            self.sim.read_page(file, index, kind)
        }
        fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
            self.sim.discard_page(file, index)
        }
        fn delete_file(&self, file: FileId) -> Result<()> {
            self.deletes.fetch_add(1, Ordering::Relaxed);
            if self.fail.load(Ordering::Relaxed) {
                return Err(crate::StorageError::Io("delete refused".into()));
            }
            self.sim.delete_file(file)
        }
        fn stats(&self) -> IoStats {
            self.sim.stats()
        }
        fn reset_stats(&self) {
            self.sim.reset_stats()
        }
    }

    #[test]
    fn a_relation_owns_its_file() {
        let device = Arc::new(DeleteCounter::default());
        let dev: DeviceRef = device.clone();
        let deletes = || device.deletes.load(Ordering::Relaxed);
        // Dropping the last handle deletes the file; a clone, a scan or a
        // run slice alone keeps it.
        for keep in 0..3 {
            let rel = small(&dev, 20);
            let handle: Box<dyn std::any::Any> = match keep {
                0 => Box::new(rel.clone()),
                1 => Box::new(rel.scan()),
                _ => Box::new(crate::sort::RunSlice::whole(&rel)),
            };
            drop(rel);
            assert_eq!(device.sim.live_files(), 1, "handle {keep} keeps the file");
            drop(handle);
            assert_eq!(device.sim.live_files(), 0, "handle {keep} was the last");
        }
        assert_eq!(deletes(), 3);
        // An unfinished writer deletes its file.
        let mut writer = RelationWriter::new(dev.clone(), layout(), 128, IoKind::RandWrite);
        for r in records(20) {
            writer.push_ref(r).unwrap();
        }
        drop(writer);
        assert_eq!((device.sim.live_files(), deletes()), (0, 4));
        // `delete` reports the device's error once; the drop does not
        // delete again.
        let rel = small(&dev, 20);
        device.fail.store(true, Ordering::Relaxed);
        assert!(rel.clone().delete().is_err());
        assert_eq!(deletes(), 5);
        drop(rel);
        assert_eq!(deletes(), 5, "the owner deletes once");
    }

    #[test]
    fn the_buffer_page_is_allocated_by_the_first_buffered_record() {
        let dev = SimDevice::new_ref();
        let page_size = 4 + 4 * 16;
        let mut w = RelationWriter::new(dev, layout(), page_size, IoKind::RandWrite);
        let mut full = Page::empty(page_size, layout());
        for r in records(4) {
            assert!(full.push_ref(r).unwrap());
        }
        w.append_full_page(&full).unwrap();
        assert!(w.page.is_none(), "whole pages need no buffer");
        w.push_ref(RecordRef::new(9, &[0; 8])).unwrap();
        assert!(w.page.is_some());
        let rel = w.finish().unwrap();
        assert_eq!((rel.num_records(), rel.num_pages()), (5, 2));
    }
}
