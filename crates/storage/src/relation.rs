//! Stored relations: a sequence of pages on a block device.
//!
//! A [`Relation`] is the storage-level representation of one join input
//! (the paper's R or S): `‖R‖` pages of fixed-width records on a device.
//! Relations are created through a [`RelationBuilder`] (bulk load) and read
//! back through [`RelationScan`], which performs page-granular sequential
//! reads so that scanning a relation costs exactly `‖R‖` sequential read
//! I/Os — the same unit the paper's cost model uses.
//!
//! Bulk loading counts as sequential writes on the device. Experiments that
//! only want to measure the *join*'s I/O (as the paper does — both input
//! relations pre-exist on disk) should call
//! [`BlockDevice::reset_stats`](crate::BlockDevice::reset_stats) after
//! loading; the experiment harness in `nocap-bench` does exactly that.

use std::sync::Arc;

use crate::device::{DeviceRef, FileId};
use crate::iostats::IoKind;
use crate::page::{records_per_page, Page};
use crate::record::{Record, RecordLayout, RecordRef};
use crate::Result;

/// A stored relation: metadata plus the device file holding its pages.
#[derive(Clone)]
pub struct Relation {
    device: DeviceRef,
    file: FileId,
    layout: RecordLayout,
    page_size: usize,
    num_records: usize,
    num_pages: usize,
}

impl Relation {
    /// Bulk-loads a relation from an iterator of records.
    ///
    /// All records must conform to `layout`; pages are filled densely so the
    /// resulting page count is `⌈n / b⌉` where `b` is the per-page record
    /// capacity.
    pub fn bulk_load<I>(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        records: I,
    ) -> Result<Relation>
    where
        I: IntoIterator<Item = Record>,
    {
        let mut builder = RelationBuilder::new(device, layout, page_size);
        for r in records {
            builder.push(&r)?;
        }
        builder.finish()
    }

    /// The device this relation lives on.
    pub fn device(&self) -> &DeviceRef {
        &self.device
    }

    /// The device file holding the relation's pages.
    pub fn file(&self) -> FileId {
        self.file
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
            next_page: pages.start.min(end),
            end_page: end,
            current: None,
            current_pos: 0,
        }
    }

    /// Reads every record into memory (test/diagnostic helper; still counts
    /// the sequential reads).
    pub fn read_all(&self) -> Result<Vec<Record>> {
        let mut out = Vec::with_capacity(self.num_records);
        for rec in self.scan() {
            out.push(rec?);
        }
        Ok(out)
    }

    /// Deletes the relation's pages from the device.
    pub fn delete(self) -> Result<()> {
        self.device.delete_file(self.file)
    }
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relation")
            .field("file", &self.file)
            .field("num_records", &self.num_records)
            .field("num_pages", &self.num_pages)
            .field("record_bytes", &self.layout.record_bytes())
            .field("page_size", &self.page_size)
            .finish()
    }
}

/// Incremental bulk loader for a [`Relation`].
pub struct RelationBuilder {
    device: DeviceRef,
    file: FileId,
    layout: RecordLayout,
    page_size: usize,
    page: Page,
    num_records: usize,
    num_pages: usize,
}

impl RelationBuilder {
    /// Starts building a new relation on `device`.
    pub fn new(device: DeviceRef, layout: RecordLayout, page_size: usize) -> Self {
        let file = device.create_file();
        RelationBuilder {
            device,
            file,
            layout,
            page_size,
            page: Page::empty(page_size, layout),
            num_records: 0,
            num_pages: 0,
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: &Record) -> Result<()> {
        self.push_ref(record.as_record_ref())
    }

    /// Appends one borrowed record (no allocation).
    pub fn push_ref(&mut self, record: RecordRef<'_>) -> Result<()> {
        if !self.page.push_ref(record)? {
            self.flush_page()?;
            let pushed = self.page.push_ref(record)?;
            debug_assert!(pushed, "freshly cleared page must accept a record");
        }
        self.num_records += 1;
        Ok(())
    }

    /// Flushes the last partial page and returns the finished relation.
    pub fn finish(mut self) -> Result<Relation> {
        if !self.page.is_empty() {
            self.flush_page()?;
        }
        Ok(Relation {
            device: self.device,
            file: self.file,
            layout: self.layout,
            page_size: self.page_size,
            num_records: self.num_records,
            num_pages: self.num_pages,
        })
    }

    fn flush_page(&mut self) -> Result<()> {
        self.device
            .append_page(self.file, &self.page, IoKind::SeqWrite)?;
        self.num_pages += 1;
        self.page.clear();
        Ok(())
    }
}

/// Record iterator over a stored relation (page-at-a-time sequential reads).
///
/// Two consumption modes share the same I/O accounting (one sequential read
/// per page, each page read exactly once):
///
/// * [`next_page`](Self::next_page) — the **zero-copy** mode: hands back
///   each page so the caller iterates [`Page::record_refs`] without any
///   per-record allocation. Every hot executor loop uses this.
/// * the [`Iterator`] impl — the **owned** mode yielding `Result<Record>`
///   (one allocation per record); kept for API edges such as
///   [`Relation::read_all`], statistics collection and the external sorter.
///
/// The two modes may be interleaved: the iterator simply drains whatever
/// page [`next_page`](Self::next_page) would return next.
pub struct RelationScan {
    relation: Relation,
    next_page: usize,
    end_page: usize,
    current: Option<Arc<Page>>,
    current_pos: usize,
}

impl RelationScan {
    /// Reads the next page of the scan (one sequential read), or `None` when
    /// the page range is exhausted. The returned page is owned by the caller;
    /// iterate it with [`Page::record_refs`] for the zero-copy record view.
    pub fn next_page(&mut self) -> Result<Option<Arc<Page>>> {
        if self.next_page >= self.end_page {
            return Ok(None);
        }
        let page =
            self.relation
                .device
                .read_page(self.relation.file, self.next_page, IoKind::SeqRead)?;
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

impl Iterator for RelationScan {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;

    fn records(n: usize, payload: usize) -> Vec<Record> {
        (0..n as u64)
            .map(|k| Record::with_fill(k, payload, 1))
            .collect()
    }

    #[test]
    fn bulk_load_page_count_matches_formula() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(24); // 32-byte records
        let rel = Relation::bulk_load(dev, layout, 4096, records(1000, 24)).unwrap();
        let per_page = rel.records_per_page();
        assert_eq!(rel.num_pages(), 1000usize.div_ceil(per_page));
        assert_eq!(rel.num_records(), 1000);
    }

    #[test]
    fn scan_returns_records_in_load_order() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let rel = Relation::bulk_load(dev, layout, 128, records(50, 8)).unwrap();
        let keys: Vec<u64> = rel.scan().map(|r| r.unwrap().key()).collect();
        assert_eq!(keys, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn scan_costs_one_seq_read_per_page() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let rel = Relation::bulk_load(dev.clone(), layout, 128, records(64, 8)).unwrap();
        dev.reset_stats();
        let _ = rel.read_all().unwrap();
        assert_eq!(dev.stats().seq_reads as usize, rel.num_pages());
        assert_eq!(dev.stats().writes(), 0);
    }

    #[test]
    fn bulk_load_costs_one_seq_write_per_page() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let rel = Relation::bulk_load(dev.clone(), layout, 128, records(64, 8)).unwrap();
        assert_eq!(dev.stats().seq_writes as usize, rel.num_pages());
    }

    #[test]
    fn scan_range_covers_exactly_the_requested_pages() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        // 128-byte pages hold 7 records of 16 bytes (4-byte header).
        let rel = Relation::bulk_load(dev.clone(), layout, 128, records(50, 8)).unwrap();
        let per_page = rel.records_per_page();
        dev.reset_stats();
        let keys: Vec<u64> = rel.scan_range(1..3).map(|r| r.unwrap().key()).collect();
        assert_eq!(dev.stats().seq_reads, 2);
        let expected: Vec<u64> = (per_page as u64..3 * per_page as u64).collect();
        assert_eq!(keys, expected);
        // Out-of-range ends clamp instead of erroring.
        let tail: Vec<u64> = rel
            .scan_range(rel.num_pages() - 1..rel.num_pages() + 10)
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(*tail.last().unwrap(), 49);
        // Sharded ranges together visit every record exactly once.
        let n = rel.num_pages();
        let mid = n / 2;
        let mut all: Vec<u64> = rel
            .scan_range(0..mid)
            .chain(rel.scan_range(mid..n))
            .map(|r| r.unwrap().key())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn page_mode_scan_visits_every_record_with_one_read_per_page() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let rel = Relation::bulk_load(dev.clone(), layout, 128, records(50, 8)).unwrap();
        dev.reset_stats();
        let mut keys = Vec::new();
        let mut scan = rel.scan();
        while let Some(page) = scan.next_page().unwrap() {
            for rec in page.record_refs() {
                keys.push(rec.key());
            }
        }
        assert_eq!(keys, (0..50).collect::<Vec<u64>>());
        assert_eq!(dev.stats().seq_reads as usize, rel.num_pages());
        assert_eq!(dev.stats().writes(), 0);
    }

    #[test]
    fn empty_relation_is_legal() {
        let dev = SimDevice::new_ref();
        let rel = Relation::bulk_load(dev, RecordLayout::new(8), 128, std::iter::empty()).unwrap();
        assert_eq!(rel.num_pages(), 0);
        assert_eq!(rel.num_records(), 0);
        assert_eq!(rel.read_all().unwrap().len(), 0);
    }

    #[test]
    fn delete_removes_pages_from_device() {
        let dev = SimDevice::new_ref();
        let sim: &SimDevice = {
            // keep a typed handle for the assertion below
            // (DeviceRef is Rc<dyn BlockDevice>, so build another SimDevice handle)
            // Instead, just check via stats-free resident_pages on a fresh device.
            &SimDevice::new()
        };
        let _ = sim; // silence unused in case of future edits
        let rel =
            Relation::bulk_load(dev.clone(), RecordLayout::new(8), 128, records(64, 8)).unwrap();
        let file = rel.file();
        assert!(dev.file_pages(file).is_ok());
        rel.delete().unwrap();
        assert!(dev.file_pages(file).is_err());
    }
}
